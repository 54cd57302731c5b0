"""File formats for paths and wavelet fields.

Two interchange formats per object: RFC-4180 CSV with 17 significant digits
(lossless for IEEE doubles), and a little-endian binary container with the
magic bytes ``MFBM1``, a kind byte and a format version.

A wavelet field is written with a real and an imaginary part per
coefficient whatever its dtype, the imaginary parts of a real field as 0.
The container does not record whether the wavelet was real, so
``load_field`` returns complex128 coefficients.
"""

from __future__ import annotations

import csv
import io
import math
import struct

import numpy as np

from .model import (InvalidParamsError, MfbmParams, MfbmwaveError,
                    check_seed, pack_triangles, unpack_triangles)
from .synth import SamplePath
from .wavelets import WaveletField

MAGIC = b"MFBM1"
VERSION = 1
KIND_PATH = 1
KIND_FIELD = 2

_F8 = np.dtype("<f8")


class ContainerError(MfbmwaveError):
    """Malformed or mismatched binary container."""


# Rows formatted per write by the CSV writers: bounds the size of one string.
_CSV_BLOCK_ROWS = 8192


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
    """Path from the CSV of :func:`path_to_csv`; a ContainerError if malformed.

    t_0 must be 0 and the first row of values 0, dt = t_1 > 0 (1 for one
    row), and each t_i must lie within 1e-9 (|i dt| + dt) of i dt, as
    path_to_csv's times do exactly.  A ``seed`` that fails ``check_seed`` is
    the caller's fault, an MfbmwaveError raised before the stream is read.
    """
    seed = check_seed(seed)
    reader = csv.reader(stream)
    header, p = next(reader, None), params.p
    if header is None or len(header) != p + 1:
        raise ContainerError(f"CSV header {header} does not name t and the "
                             f"{p} components the params declare")
    rows = [row for row in reader if row]
    if not rows or any(len(row) != p + 1 for row in rows):
        raise ContainerError(f"CSV needs data rows of {p + 1} fields each")
    try:
        data = np.array([[float(tok) for tok in row] for row in rows])
    except ValueError:
        raise ContainerError("CSV holds a non-numeric value") from None
    times = data[:, 0]
    dt = float(times[1]) if len(times) > 1 else 1.0
    grid = np.arange(len(times)) * dt
    if not (times[0] == 0.0 and 0.0 < dt < math.inf
            and np.allclose(times, grid, rtol=1e-9, atol=1e-9 * dt)):
        raise ContainerError("CSV time column is not a uniform ascending grid "
                             "from 0")
    try:
        return SamplePath(params=params, n=data.shape[0], dt=dt,
                          values=data[:, 1:].T.copy(), seed=seed)
    except ValueError as exc:
        raise ContainerError(f"invalid CSV path: {exc}") from exc


def field_to_csv(field: WaveletField, stream) -> None:
    stream.write("component,scale,shift,re,im\r\n")
    for j in range(field.p):
        for ia, a in enumerate(field.scales):
            c = field.coeffs[j, ia]
            _write_rows(stream, f"{j},{a:.17g},%.17g,%.17g,%.17g\r\n",
                        [field.shifts, c.real, c.imag])


# ---------------------------------------------------------------------------
# Binary
# ---------------------------------------------------------------------------

def _write_header(stream, kind: int) -> None:
    stream.write(MAGIC)
    stream.write(struct.pack("<BH", kind, VERSION))


def _read(stream, size: int) -> bytes:
    """Exactly ``size`` bytes of ``stream``; fewer raise ContainerError.

    A seekable stream is first checked against its remaining length, so a
    corrupt size field never asks for a buffer larger than the file.
    """
    if stream.seekable():
        here = stream.tell()
        remaining = stream.seek(0, io.SEEK_END) - here
        stream.seek(here)
        if size > remaining:
            raise ContainerError("truncated container")
    raw = stream.read(size)
    if len(raw) != size:
        raise ContainerError("truncated container")
    return raw


def _unpack(stream, fmt: str) -> tuple:
    return struct.unpack(fmt, _read(stream, struct.calcsize(fmt)))


def _take(stream, count: int) -> np.ndarray:
    """``count`` little-endian doubles."""
    return np.frombuffer(_read(stream, 8 * count), dtype=_F8).copy()


def _read_header(stream, expected_kind: int) -> None:
    magic = stream.read(5)
    if magic != MAGIC:
        raise ContainerError(f"bad magic {magic!r}, expected {MAGIC!r}")
    kind, version = _unpack(stream, "<BH")
    if version != VERSION:
        raise ContainerError(f"unsupported container version {version}")
    if kind != expected_kind:
        raise ContainerError(f"container kind {kind}, expected {expected_kind}")


def _params_blob(params: MfbmParams) -> bytes:
    parts = [np.asarray(a, dtype=_F8).tobytes()
             for a in (params.H, params.sigma, *pack_triangles(params))]
    return b"".join(parts)


def _params_from_blob(stream, p: int) -> MfbmParams:
    H = _take(stream, p)
    sigma = _take(stream, p)
    rho, eta = unpack_triangles(p, _take(stream, p * (p + 1) // 2),
                                _take(stream, p * (p - 1) // 2))
    try:
        return MfbmParams(H=H, sigma=sigma, rho=rho, eta=eta)
    except InvalidParamsError as exc:
        raise ContainerError(f"invalid stored parameters: {exc}") from exc


def save_path(path: SamplePath, stream) -> None:
    _write_header(stream, KIND_PATH)
    stream.write(struct.pack("<IQdQ", path.params.p, path.n, path.dt, path.seed))
    stream.write(_params_blob(path.params))
    stream.write(np.ascontiguousarray(path.values, dtype=_F8).tobytes())


def load_path(stream) -> SamplePath:
    _read_header(stream, KIND_PATH)
    p, n, dt, seed = _unpack(stream, "<IQdQ")
    params = _params_from_blob(stream, p)
    values = _take(stream, p * n).reshape(p, n)
    try:
        return SamplePath(params=params, n=n, dt=dt, values=values, seed=seed)
    except ValueError as exc:
        raise ContainerError(f"invalid stored path: {exc}") from exc


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
    p, n_scales, n_shifts, dt, n, seed = _unpack(stream, "<IIQdQQ")
    scales = _take(stream, n_scales)
    shifts = _take(stream, n_shifts)
    flat = _take(stream, p * n_scales * n_shifts * 2).reshape(
        p, n_scales, n_shifts, 2)
    coeffs = flat[..., 0] + 1j * flat[..., 1]
    try:
        return WaveletField(coeffs=coeffs, scales=scales, shifts=shifts,
                            dt=dt, n=n, seed=seed)
    except ValueError as exc:
        raise ContainerError(f"invalid stored field: {exc}") from exc


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


def path_to_csv_file(path: SamplePath, filename) -> None:
    with open(filename, "w", newline="", encoding="utf-8") as f:
        path_to_csv(path, f)


def field_to_csv_file(field: WaveletField, filename) -> None:
    with open(filename, "w", newline="", encoding="utf-8") as f:
        field_to_csv(field, f)
