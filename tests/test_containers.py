import csv
import io
import struct

import numpy as np
import pytest

from mfbmwave.model import MfbmParams, MfbmwaveError, pack_triangles
from mfbmwave.synth import SamplePath, simulate
from mfbmwave.wavelets import (HermiteWavelet, WaveletField,
                               gaussian_derivative, cwt)
from mfbmwave.containers import (
    ContainerError,
    MAGIC,
    path_to_csv,
    path_from_csv,
    field_to_csv,
    save_path,
    load_path,
    save_field,
    load_field,
    load_path_file,
)

PARAMS = MfbmParams.bivariate(0.4, 0.7, rho=0.5, eta=0.1)


@pytest.fixture(scope="module")
def path():
    return simulate(PARAMS, 200, 0.5, seed=77)[0]


@pytest.fixture(scope="module")
def field(path):
    return cwt(path, gaussian_derivative(1), [2.0, 4.0])


class TestCsv:
    def test_path_round_trip_lossless(self, path):
        buf = io.StringIO(newline="")
        path_to_csv(path, buf)
        buf.seek(0)
        again = path_from_csv(buf, PARAMS, seed=path.seed)
        np.testing.assert_array_equal(again.values, path.values)
        assert again.dt == path.dt
        assert again.n == path.n

    def test_rfc4180_line_endings_and_header(self, path):
        buf = io.StringIO(newline="")
        path_to_csv(path, buf)
        text = buf.getvalue()
        assert text.startswith("t,x_1,x_2\r\n")

    def test_component_mismatch_rejected(self, path):
        buf = io.StringIO(newline="")
        path_to_csv(path, buf)
        buf.seek(0)
        with pytest.raises(ContainerError):
            path_from_csv(buf, MfbmParams.univariate(0.5))

    @pytest.mark.parametrize("text, message", [
        ("", "CSV header None"),
        ("t,x_1,x_2\r\n", "data rows of 3 fields"),
        ("t,x_1,x_2\r\n0,0,0\r\n1,0.5,abc\r\n", "non-numeric value"),
        ("t,x_1,x_2\r\n0,0,0\r\n1,0.5\r\n", "data rows of 3 fields"),
        ("t,x_1,x_2\r\n0,0,0\r\n1,0.5,1\r\n2,1,1,7\r\n",
         "data rows of 3 fields"),
        ("t,x_1,x_2\r\n0,0,0\r\n1,0.5,1\r\n3,1,1\r\n", "not a uniform"),
        ("t,x_1,x_2\r\n0,0,0\r\n-1,0.5,1\r\n-2,1,1\r\n",
         "not a uniform"),
        ("t,x_1,x_2\r\n0,0,0\r\n0,0.5,1\r\n", "not a uniform"),
        ("t,x_1,x_2\r\n0,0,0\r\nnan,0.5,1\r\n", "not a uniform"),
        ("t,x_1,x_2\r\n5,0,0\r\n6,1,1\r\n", "grid from 0"),
        ("t,x_1,x_2\r\n0,1,0\r\n1,1,1\r\n", "paths must start at zero")],
        ids=["empty", "header-only", "non-numeric", "short-row", "long-row",
             "time-gap", "time-descending", "time-repeated", "time-nan",
             "time-offset", "first-row-nonzero"])
    def test_malformed_rejected(self, text, message):
        with pytest.raises(ContainerError, match=message):
            path_from_csv(io.StringIO(text, newline=""), PARAMS)

    def test_bad_seed_is_the_callers(self, path):
        # a valid CSV: the seed argument is refused before the stream is read,
        # and not as a malformed file
        buf = io.StringIO(newline="")
        path_to_csv(path, buf)
        buf.seek(0)
        with pytest.raises(MfbmwaveError, match=r"seed must lie in \[0, 2\*\*64\), "
                                                r"got -1") as info:
            path_from_csv(buf, PARAMS, seed=-1)
        assert not isinstance(info.value, ContainerError)
        assert buf.tell() == 0

    def test_rounded_times_admitted(self):
        # 0.3 is not 3 * 0.1 in binary; hand-written times keep dt = 0.1
        text = "t,x_1,x_2\r\n0,0,0\r\n0.1,1,2\r\n0.2,3,4\r\n0.3,5,6\r\n"
        got = path_from_csv(io.StringIO(text, newline=""), PARAMS)
        assert got.dt == 0.1 and got.n == 4
        np.testing.assert_array_equal(got.values, [[0, 1, 3, 5], [0, 2, 4, 6]])

    def test_field_csv_shape(self, field):
        buf = io.StringIO(newline="")
        field_to_csv(field, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "component,scale,shift,re,im"
        assert len(lines) == 1 + field.p * field.scales.size * field.shifts.size


SPECIAL = [-0.0, 5e-324, -2.2250738585072e-310, 1e308, -1.7976931348623157e308,
           float("nan"), float("inf"), -float("inf"), 0.1, 1.0 / 3.0, -7.0]


def csv_writer_bytes(header, rows):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([v if isinstance(v, int) else f"{v:.17g}" for v in row])
    return buf.getvalue()


class TestCsvBytes:
    """The block writers give the bytes of one csv.writer row per value set."""

    def test_path_csv_bytes(self):
        values = np.array([[0.0] + SPECIAL, [0.0] + SPECIAL[::-1]])
        p = SamplePath(params=PARAMS, n=12, dt=0.1, values=values, seed=1)
        buf = io.StringIO(newline="")
        path_to_csv(p, buf)
        want = csv_writer_bytes(["t", "x_1", "x_2"],
                                [[p.times[i], *values[:, i]] for i in range(12)])
        assert buf.getvalue() == want

    def test_field_csv_bytes(self):
        coeffs = np.empty((2, 2, 11), dtype=complex)
        coeffs.real = [[SPECIAL, SPECIAL[::-1]], [SPECIAL[::-1], SPECIAL]]
        coeffs.imag = -coeffs.real[:, ::-1]
        scales = np.array([1e-300, 2.5])
        shifts = np.arange(11) * 0.1 - 0.3
        fld = WaveletField(coeffs=coeffs, scales=scales, shifts=shifts,
                           dt=0.1, n=40)
        buf = io.StringIO(newline="")
        field_to_csv(fld, buf)
        rows = [[j, scales[ia], shifts[ib], coeffs[j, ia, ib].real,
                 coeffs[j, ia, ib].imag]
                for j in range(2) for ia in range(2) for ib in range(11)]
        want = csv_writer_bytes(["component", "scale", "shift", "re", "im"], rows)
        assert buf.getvalue() == want

    def test_rows_span_blocks(self, path, monkeypatch):
        import mfbmwave.containers as containers
        monkeypatch.setattr(containers, "_CSV_BLOCK_ROWS", 64)
        assert path.n % 64 != 0
        buf = io.StringIO(newline="")
        path_to_csv(path, buf)
        want = csv_writer_bytes(["t", "x_1", "x_2"],
                                [[path.times[i], *path.values[:, i]]
                                 for i in range(path.n)])
        assert buf.getvalue() == want


class TestBinary:
    def test_path_round_trip(self, path):
        buf = io.BytesIO()
        save_path(path, buf)
        raw = buf.getvalue()
        assert raw.startswith(MAGIC)
        buf.seek(0)
        again = load_path(buf)
        np.testing.assert_array_equal(again.values, path.values)
        np.testing.assert_array_equal(again.params.H, PARAMS.H)
        np.testing.assert_array_equal(again.params.rho, PARAMS.rho)
        np.testing.assert_array_equal(again.params.eta, PARAMS.eta)
        assert again.seed == path.seed
        assert again.dt == path.dt

    def test_field_round_trip(self, field):
        buf = io.BytesIO()
        save_field(field, buf)
        buf.seek(0)
        again = load_field(buf)
        np.testing.assert_array_equal(again.coeffs, field.coeffs)
        np.testing.assert_array_equal(again.scales, field.scales)
        np.testing.assert_array_equal(again.shifts, field.shifts)
        assert again.n == field.n and again.dt == field.dt

    def test_bad_magic_rejected(self):
        buf = io.BytesIO(b"NOTIT" + b"\x00" * 64)
        with pytest.raises(ContainerError):
            load_path(buf)

    def test_kind_mismatch_rejected(self, path):
        buf = io.BytesIO()
        save_path(path, buf)
        buf.seek(0)
        with pytest.raises(ContainerError):
            load_field(buf)

    def test_truncation_detected(self, path):
        buf = io.BytesIO()
        save_path(path, buf)
        raw = buf.getvalue()[:-16]
        with pytest.raises(ContainerError):
            load_path(io.BytesIO(raw))

    @pytest.mark.parametrize("kind", ["path", "field"])
    def test_cut_at_every_offset(self, kind, path, field):
        save, load, obj = {"path": (save_path, load_path, path),
                           "field": (save_field, load_field, field)}[kind]
        buf = io.BytesIO()
        save(obj, buf)
        raw = buf.getvalue()
        for cut in range(len(raw)):
            with pytest.raises(ContainerError):
                load(io.BytesIO(raw[:cut]))

    def test_stored_rho_diagonal_checked(self, path):
        buf = io.BytesIO()
        save_path(path, buf)
        raw = buf.getvalue()
        # header (8 bytes), p n dt seed (28), H and sigma (2 x 16), then rho_00
        at = 8 + 28 + 32
        assert struct.unpack("<d", raw[at:at + 8]) == (1.0,)
        bad = raw[:at] + struct.pack("<d", 7.0) + raw[at + 8:]
        with pytest.raises(ContainerError, match="unit diagonal"):
            load_path(io.BytesIO(bad))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_stored_scale_not_finite(self, field, bad):
        buf = io.BytesIO()
        save_field(field, buf)
        raw = buf.getvalue()
        # header (8 bytes), p n_scales n_shifts dt n seed (40), then scales
        at = 8 + 40 + 8
        assert struct.unpack("<d", raw[at:at + 8]) == (4.0,)
        bad_raw = raw[:at] + struct.pack("<d", bad) + raw[at + 8:]
        with pytest.raises(ContainerError, match="invalid stored field"):
            load_field(io.BytesIO(bad_raw))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     -float("inf")])
    def test_stored_shift_not_finite(self, field, bad):
        buf = io.BytesIO()
        save_field(field, buf)
        raw = buf.getvalue()
        # header (8 bytes), p n_scales n_shifts dt n seed (40), two scales
        # (16), then the shifts
        at = 8 + 40 + 16
        assert struct.unpack("<d", raw[at:at + 8]) == (field.shifts[0],)
        bad_raw = raw[:at] + struct.pack("<d", bad) + raw[at + 8:]
        with pytest.raises(ContainerError, match="invalid stored field: "
                                                 "shifts must be finite"):
            load_field(io.BytesIO(bad_raw))

    @pytest.mark.parametrize("kind", ["path", "field"])
    @pytest.mark.parametrize("dt", [float("nan"), 0.0, -1.0])
    def test_stored_step_checked(self, path, field, kind, dt):
        # a stored NaN step loaded as a path with dt NaN.  dt sits after the
        # header (8 bytes) and p n (12) of a path, p n_scales n_shifts (16)
        # of a field
        save, load, at = {"path": (save_path, load_path, 20),
                          "field": (save_field, load_field, 24)}[kind]
        buf = io.BytesIO()
        save(path if kind == "path" else field, buf)
        raw = bytearray(buf.getvalue())
        assert struct.unpack("<d", raw[at:at + 8]) == (0.5,)
        raw[at:at + 8] = struct.pack("<d", dt)
        with pytest.raises(ContainerError, match=f"invalid stored {kind}: dt "
                                                 "must be positive and finite"):
            load(io.BytesIO(bytes(raw)))

    def test_path_without_points(self, path):
        buf = io.BytesIO()
        save_path(path, buf)
        raw = bytearray(buf.getvalue())
        # n sits after the header (8 bytes) and p (4); n = 0 stores no values
        # after dt, seed (16) and the parameters (8 doubles at p = 2)
        raw[12:20] = struct.pack("<Q", 0)
        with pytest.raises(ContainerError, match="at least one point"):
            load_path(io.BytesIO(bytes(raw[:8 + 28 + 64])))

    def test_size_field_beyond_file(self, path, tmp_path):
        buf = io.BytesIO()
        save_path(path, buf)
        raw = bytearray(buf.getvalue())
        # the path length n sits after the header (8 bytes) and p (4 bytes)
        raw[12:20] = struct.pack("<Q", 1 << 61)
        f = tmp_path / "huge.mfbm"
        f.write_bytes(bytes(raw))
        with pytest.raises(ContainerError, match="truncated"):
            load_path_file(f)


class TestBinaryBytes:
    """The writers give the bytes of the format spelled out with a copy of
    each array and the coefficients interleaved by hand."""

    @staticmethod
    def head(kind, fields, *arrays):
        return (MAGIC + struct.pack("<BH", kind, 1) + fields
                + b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes()
                           for a in arrays))

    def path_bytes(self, path):
        params = path.params
        return self.head(1, struct.pack("<IQdQ", params.p, path.n, path.dt,
                                        path.seed),
                         params.H, params.sigma, *pack_triangles(params),
                         path.values)

    def field_bytes(self, field):
        inter = np.empty(field.coeffs.shape + (2,), dtype="<f8")
        inter[..., 0] = field.coeffs.real
        inter[..., 1] = field.coeffs.imag
        return self.head(2, struct.pack("<IIQdQQ", field.p, field.scales.size,
                                        field.shifts.size, field.dt, field.n,
                                        field.seed),
                         field.scales, field.shifts, inter)

    def test_path_bytes(self, path):
        view = SamplePath(params=PARAMS, n=100, dt=0.5,
                          values=path.values[:, ::2], seed=5)
        assert not view.values.flags.c_contiguous
        for each in (path, view):
            buf = io.BytesIO()
            save_path(each, buf)
            assert buf.getvalue() == self.path_bytes(each)

    def test_field_bytes(self, path, field):
        complex_field = cwt(path, HermiteWavelet([(1.0, 1), (0.5j, 2)]),
                            [2.0, 4.0])
        assert field.coeffs.dtype == float
        assert complex_field.coeffs.dtype == complex
        for each in (field, complex_field):
            buf = io.BytesIO()
            save_field(each, buf)
            assert buf.getvalue() == self.field_bytes(each)
