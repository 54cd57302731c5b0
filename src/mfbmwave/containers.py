"""File formats for paths and wavelet fields.

Two interchange formats per object: RFC-4180 CSV with 17 significant digits
(lossless for IEEE doubles), and a little-endian binary container with the
magic bytes ``MFBM1``, a kind byte and a format version.
"""

from __future__ import annotations

import csv
import struct

import numpy as np

from .model import MfbmParams
from .synth import SamplePath
from .wavelets import WaveletField

MAGIC = b"MFBM1"
VERSION = 1
KIND_PATH = 1
KIND_FIELD = 2

_F8 = np.dtype("<f8")


class ContainerError(ValueError):
    """Malformed or mismatched binary container."""


# Rows formatted per write by the CSV writers: bounds the size of one string.
_CSV_BLOCK_ROWS = 8192


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------
#
# The writers format a block of rows with one %-operation instead of one
# value at a time through csv.writer; the bytes are the same, since no field
# needs quoting and csv's line terminator is "\r\n".

def _write_rows(stream, row_format: str, columns) -> None:
    """Write ``row_format % row`` for each row of the stacked ``columns``."""
    table = np.column_stack(columns)
    for start in range(0, len(table), _CSV_BLOCK_ROWS):
        block = table[start:start + _CSV_BLOCK_ROWS]
        stream.write((row_format * len(block)) % tuple(block.ravel().tolist()))


def path_to_csv(path: SamplePath, stream) -> None:
    p = path.params.p
    stream.write(",".join(["t"] + [f"x_{j + 1}" for j in range(p)]) + "\r\n")
    _write_rows(stream, ",".join(["%.17g"] * (p + 1)) + "\r\n",
                [path.times, *path.values])


def path_from_csv(stream, params: MfbmParams, seed: int = 0) -> SamplePath:
    reader = csv.reader(stream)
    header = next(reader)
    p = len(header) - 1
    if p != params.p:
        raise ContainerError(f"CSV has {p} components, params declare {params.p}")
    rows = [[float(tok) for tok in row] for row in reader if row]
    data = np.asarray(rows)
    times = data[:, 0]
    dt = float(times[1] - times[0]) if len(times) > 1 else 1.0
    return SamplePath(params=params, n=data.shape[0], dt=dt,
                      values=data[:, 1:].T.copy(), seed=seed)


def field_to_csv(field: WaveletField, stream) -> None:
    stream.write("component,scale,shift,re,im\r\n")
    for j in range(field.p):
        for ia, a in enumerate(field.scales):
            c = field.coeffs[j, ia]
            _write_rows(stream, f"{j},{_fmt(a)},%.17g,%.17g,%.17g\r\n",
                        [field.shifts, c.real, c.imag])


# ---------------------------------------------------------------------------
# Binary
# ---------------------------------------------------------------------------

def _write_header(stream, kind: int) -> None:
    stream.write(MAGIC)
    stream.write(struct.pack("<BH", kind, VERSION))


def _read_header(stream, expected_kind: int) -> None:
    magic = stream.read(5)
    if magic != MAGIC:
        raise ContainerError(f"bad magic {magic!r}, expected {MAGIC!r}")
    kind, version = struct.unpack("<BH", stream.read(3))
    if version != VERSION:
        raise ContainerError(f"unsupported container version {version}")
    if kind != expected_kind:
        raise ContainerError(f"container kind {kind}, expected {expected_kind}")


def _params_blob(params: MfbmParams) -> bytes:
    p = params.p
    rho_low = np.array([params.rho[i, j] for i in range(p) for j in range(i + 1)])
    eta_low = np.array([params.eta[i, j] for i in range(p) for j in range(i)])
    parts = [np.asarray(a, dtype=_F8).tobytes()
             for a in (params.H, params.sigma, rho_low, eta_low)]
    return b"".join(parts)


def _params_from_blob(stream, p: int) -> MfbmParams:
    def take(count):
        raw = stream.read(8 * count)
        if len(raw) != 8 * count:
            raise ContainerError("truncated container")
        return np.frombuffer(raw, dtype=_F8).copy()

    H = take(p)
    sigma = take(p)
    rho_low = take(p * (p + 1) // 2)
    eta_low = take(p * (p - 1) // 2)
    rho = np.eye(p)
    it = iter(rho_low)
    for i in range(p):
        for j in range(i + 1):
            v = next(it)
            if i != j:
                rho[i, j] = rho[j, i] = v
    eta = np.zeros((p, p))
    it = iter(eta_low)
    for i in range(p):
        for j in range(i):
            v = next(it)
            eta[i, j] = v
            eta[j, i] = -v
    return MfbmParams(H=H, sigma=sigma, rho=rho, eta=eta)


def save_path(path: SamplePath, stream) -> None:
    _write_header(stream, KIND_PATH)
    stream.write(struct.pack("<IQdQ", path.params.p, path.n, path.dt, path.seed))
    stream.write(_params_blob(path.params))
    stream.write(np.ascontiguousarray(path.values, dtype=_F8).tobytes())


def load_path(stream) -> SamplePath:
    _read_header(stream, KIND_PATH)
    p, n, dt, seed = struct.unpack("<IQdQ", stream.read(4 + 8 + 8 + 8))
    params = _params_from_blob(stream, p)
    raw = stream.read(8 * p * n)
    if len(raw) != 8 * p * n:
        raise ContainerError("truncated container")
    values = np.frombuffer(raw, dtype=_F8).reshape(p, n).copy()
    return SamplePath(params=params, n=n, dt=dt, values=values, seed=seed)


def save_field(field: WaveletField, stream) -> None:
    _write_header(stream, KIND_FIELD)
    seed = field.seed if field.seed is not None else 0
    stream.write(struct.pack("<IIQdQQ", field.p, field.scales.size,
                             field.shifts.size, field.dt, field.n, seed))
    stream.write(np.ascontiguousarray(field.scales, dtype=_F8).tobytes())
    stream.write(np.ascontiguousarray(field.shifts, dtype=_F8).tobytes())
    inter = np.empty(field.coeffs.shape + (2,), dtype=_F8)
    inter[..., 0] = field.coeffs.real
    inter[..., 1] = field.coeffs.imag
    stream.write(inter.tobytes())


def load_field(stream) -> WaveletField:
    _read_header(stream, KIND_FIELD)
    p, n_scales, n_shifts, dt, n, seed = struct.unpack(
        "<IIQdQQ", stream.read(4 + 4 + 8 + 8 + 8 + 8))

    def take(count):
        raw = stream.read(8 * count)
        if len(raw) != 8 * count:
            raise ContainerError("truncated container")
        return np.frombuffer(raw, dtype=_F8).copy()

    scales = take(n_scales)
    shifts = take(n_shifts)
    flat = take(p * n_scales * n_shifts * 2).reshape(p, n_scales, n_shifts, 2)
    coeffs = flat[..., 0] + 1j * flat[..., 1]
    return WaveletField(coeffs=coeffs, scales=scales, shifts=shifts,
                        dt=dt, n=n, seed=seed)


# Convenience path-based wrappers

def save_path_file(path: SamplePath, filename) -> None:
    with open(filename, "wb") as f:
        save_path(path, f)


def load_path_file(filename) -> SamplePath:
    with open(filename, "rb") as f:
        return load_path(f)


def save_field_file(field: WaveletField, filename) -> None:
    with open(filename, "wb") as f:
        save_field(field, f)


def load_field_file(filename) -> WaveletField:
    with open(filename, "rb") as f:
        return load_field(f)


def path_to_csv_file(path: SamplePath, filename) -> None:
    with open(filename, "w", newline="", encoding="utf-8") as f:
        path_to_csv(path, f)


def path_from_csv_file(filename, params: MfbmParams, seed: int = 0) -> SamplePath:
    with open(filename, "r", newline="", encoding="utf-8") as f:
        return path_from_csv(f, params, seed=seed)


def field_to_csv_file(field: WaveletField, filename) -> None:
    with open(filename, "w", newline="", encoding="utf-8") as f:
        field_to_csv(field, f)
