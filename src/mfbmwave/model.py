"""Multivariate fractional Brownian motion: parameterization and covariance kernel.

The process is a p-component zero-mean Gaussian process with stationary
increments whose components are jointly self-similar with Hurst exponents
H_1, ..., H_p.  Its full second-order structure is determined by the
amplitudes sigma_j, the symmetric instantaneous correlations rho_jk and the
antisymmetric time-asymmetry parameters eta_jk.  This module holds the
parameter container, the two-branch kernel w_jk, the cross-covariance, the
increment covariance, the complex frequency weight zeta_jk, and the
admissibility (existence) test, whose matrix is Gamma(H_j + H_k + 1) zeta_jk
at negative frequency.  Beside the memory budget and the chunk size of the
streamed stages it holds the runner that the synthesis and the wavelet
transform use to run large pieces of work on threads, and the one rule each
of a sampling step or scale, a finite lag, shift or frequency, an integer
and a seed that every entry point applies.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from dataclasses import dataclass

import numpy as np

# Tolerance on |H_j + H_k - 1| selecting the logarithmic kernel branch.
BRANCH_TOL = 1e-12

# Absolute tolerance on the smallest eigenvalue in the admissibility test;
# absorbs floating-point noise on structurally PSD matrices.
EIG_TOL = 1e-10

# Samples (array elements) a task of threaded work must hold for its stage
# to be split (``pieces``): below it a stage is one piece on the caller.  At
# 2^18 a piece is a few milliseconds of FFT, far above a thread start.
PIECE_SAMPLES = 1 << 18

# Bytes that a config-sized array may hold, checked by require_bytes before
# it is allocated: the embedding build, a synthesis chunk, a list of paths,
# a frequency grid, a wavelet field.  2 GiB admits m = 2^24 at p = 2, and at
# p = 3 on up to two CPUs; each further CPU holds one more pair's rows of the
# build at once, and from three on it admits m = 2^23 at p = 3.
MEMORY_BUDGET = 2 << 30

# Bytes per chunk of a streamed stage, counted over the arrays that grow with
# one chunk, with at least one item in every chunk.  The synthesis counts a
# draw's noise and its complex copy (32 m p bytes), and draws a larger draw
# ahead in units of as many frequencies as fit, 32 p bytes each; the wavelet
# transform the larger of a path's values and its field, the covariance
# estimator a field's two stacked rows.  Streaming 300 bivariate paths of
# n = 4096 through all three (CLI estimate, 2 CPUs): synthesis chunks of
# 128 KB and 8 MB were 20-45 % slower, transform chunks of 256 KB to 4 MB
# within 10 %, and estimator blocks of 1 MB in place of 4 MB took the
# closure-n4096 benchmark from 146.6 to 140.1 MB peak RSS and 0.393 to
# 0.399 s a round (medians of 10 pairs).
CHUNK_BYTES = 1 << 20


class MfbmwaveError(ValueError):
    """Base of the errors a caller's input causes: parameters, sizes, seeds,
    wavelet orders, scale, shift and lag grids, config values, containers.

    The command-line front end maps it to exit status 2.  Numerical
    non-convergence (``quadrature.QuadratureError``) is not one of them.
    """


class InvalidParamsError(MfbmwaveError):
    """Raised when a parameter set violates the structural constraints;
    ``key`` names the entry at fault ('H', 'sigma', 'rho' or 'eta'), if known."""

    def __init__(self, message: str, key: str | None = None):
        self.key = key
        super().__init__(message)


class ComponentIndexError(MfbmwaveError, IndexError):
    """A component index outside 0 .. p - 1."""


class ParamsFormatError(InvalidParamsError):
    """Raised by the text parser; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def require_bytes(need: int, what: str) -> None:
    """An MfbmwaveError if ``what`` needs more than MEMORY_BUDGET bytes."""
    if need > MEMORY_BUDGET:
        raise MfbmwaveError(f"{what} needs {need} bytes, over the budget of "
                            f"{MEMORY_BUDGET}")


def check_step(name: str, value) -> float:
    """A step or scale as a float: a real number, not ``bool``, that is
    positive and finite as a float; else an MfbmwaveError naming ``name``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if 0.0 < (step := float(value)) < math.inf:
                return step
        except OverflowError:           # an int too large for a float
            pass
    raise MfbmwaveError(f"{name} must be positive and finite, got {value!r}")


def check_finite(name: str, value) -> np.ndarray:
    """A lag, a shift or a frequency, or an array of them, as a float array:
    real numbers, not ``bool``, finite as floats; else an MfbmwaveError
    naming ``name``."""
    array = np.asarray(value)           # an int too large for a float: object
    if array.dtype.kind not in "iuf" or not np.isfinite(array).all():
        raise MfbmwaveError(f"{name} must be finite, got {value!r}")
    return array.astype(float, copy=False)


def check_integer(name: str, value, least: int | None = None) -> int:
    """A size or count as an int: a Python or numpy integer, not ``bool``, at
    least ``least`` if given; else an MfbmwaveError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise MfbmwaveError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise MfbmwaveError(f"need {name} >= {least}, got {value}")
    return int(value)


def check_seed(seed) -> int:
    """A seed as an int: an integer (``check_integer``) in [0, 2**64)."""
    if not 0 <= (seed := check_integer("seed", seed)) < 2 ** 64:
        raise MfbmwaveError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def workers(count: int) -> int:
    """Workers ``run_pieces`` uses for ``count`` pieces, the caller included.

    One per CPU this process may run on (its affinity mask), at most one per
    piece.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity mask outside Linux
        cpus = os.cpu_count() or 1
    return min(cpus, count)


def pieces(tasks: int, task_samples: int) -> int:
    """Pieces of a stage of ``tasks`` tasks of ``task_samples`` samples each:
    one per task once a task holds ``PIECE_SAMPLES``, else one, on the
    caller.  No piece cuts a task, so a worker holds one task's arrays at a
    time."""
    return tasks if task_samples >= PIECE_SAMPLES else 1


def run_pieces(work, tasks: int, count: int) -> list:
    """Call ``work(lo, hi)`` on ``count`` contiguous ranges that cover tasks
    0 .. tasks - 1, on ``workers(count)`` workers; the results in range order.

    Range i is i tasks // count .. (i + 1) tasks // count, end excluded.  The
    caller is one of the workers; with one piece or one CPU it is the only
    one and no thread starts.  Every thread runs under the caller's
    floating-point error state, which numpy keeps per thread.  The first
    exception stops new pieces and is raised here once every thread ends.
    """
    todo = iter(range(count))       # next() on it holds the GIL
    results = [None] * count
    failed = []

    def run():
        try:
            for i in todo:
                if failed:
                    return
                results[i] = work(i * tasks // count, (i + 1) * tasks // count)
        except Exception as exc:    # noqa: BLE001 - raised in the caller
            failed.append(exc)

    def run_thread(errstate):
        with np.errstate(**errstate):
            run()

    threads = [threading.Thread(target=run_thread, args=(np.geterr(),),
                                daemon=True)
               for _ in range(workers(count) - 1)]
    for thread in threads:
        thread.start()
    try:
        run()
    finally:
        failed.append(None)         # no new pieces, also after an interrupt
        for thread in threads:
            thread.join()
    errors = [exc for exc in failed if exc is not None]
    if errors:
        raise errors[0]
    return results


def _close(x: float, y: float) -> bool:
    """np.isclose(x, y, atol=1e-12, rtol=0.0) for two finite floats."""
    return abs(x - y) <= 1e-12


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class MfbmParams:
    """Parameter set (H, sigma, rho, eta) of a p-component process.

    H      : Hurst exponents, each in the open interval (0, 1).
    sigma  : positive finite amplitudes; sigma_j^2 is Var(x_j(1)).
    rho    : symmetric correlation matrix with unit diagonal, entries in [-1, 1].
    eta    : antisymmetric matrix with zero diagonal and finite entries.

    Construction checks only the structural constraints above, each to
    1e-12, and is the one place that does: the readers of the text and
    binary formats pass it what they parse.  An InvalidParamsError names the
    entry at fault in its ``key``.  The diagonal of rho is stored as exactly
    1.0.  Whether the parameters define a valid process is a separate
    spectral condition, see :func:`check_existence`; simulation refuses
    inadmissible parameters.
    Sets compare and hash by value, entry by entry (-0.0 equals 0.0).
    """

    H: np.ndarray
    sigma: np.ndarray
    rho: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        H = _as_readonly(np.atleast_1d(self.H))
        sigma = _as_readonly(np.atleast_1d(self.sigma))
        rho = np.array(np.atleast_2d(self.rho), dtype=float)
        eta = _as_readonly(np.atleast_2d(self.eta))
        p = H.shape[0]
        if H.ndim != 1 or p < 1:
            raise InvalidParamsError("H must be a non-empty vector", "H")
        # The checks below compare plain floats: a p of 2 or 3 costs a few
        # microseconds, where np.allclose and np.any cost tens each.
        hs = H.tolist()
        if not all(0.0 < h < 1.0 for h in hs):
            raise InvalidParamsError("every Hurst exponent must lie in (0, 1)", "H")
        if sigma.shape != (p,) or any(s <= 0.0 for s in sigma.tolist()):
            raise InvalidParamsError(
                "sigma must be a length-p vector of positive amplitudes", "sigma")
        if not all(math.isfinite(s) for s in sigma.tolist()):
            raise InvalidParamsError("every amplitude sigma must be finite", "sigma")
        if rho.shape != (p, p) or eta.shape != (p, p):
            raise InvalidParamsError("rho and eta must be p x p matrices",
                                     "rho" if rho.shape != (p, p) else "eta")
        r, e = rho.tolist(), eta.tolist()
        pairs = [(j, k) for j in range(p) for k in range(p)]
        if not all(math.isfinite(r[j][k]) for j, k in pairs):
            raise InvalidParamsError("every rho entry must be finite", "rho")
        if not all(_close(r[j][k], r[k][j]) for j, k in pairs):
            raise InvalidParamsError("rho must be symmetric", "rho")
        if not all(_close(r[j][j], 1.0) for j in range(p)):
            raise InvalidParamsError("rho must have unit diagonal", "rho")
        if any(abs(r[j][k]) > 1.0 + 1e-12 for j, k in pairs):
            raise InvalidParamsError("rho entries must lie in [-1, 1]", "rho")
        if not all(math.isfinite(e[j][k]) for j, k in pairs):
            raise InvalidParamsError("every eta entry must be finite", "eta")
        if not all(_close(e[j][k], -e[k][j]) for j, k in pairs):
            raise InvalidParamsError("eta must be antisymmetric", "eta")
        rho.flat[::p + 1] = 1.0     # the unit diagonal, exactly
        rho.setflags(write=False)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "eta", eta)
        # plain floats for alpha, which every kernel and spectral query calls
        object.__setattr__(self, "_hs", tuple(hs))
        # the entries by value, for ==, the hash and fingerprint()
        key = tuple(tuple(a.ravel().tolist()) for a in (H, sigma, rho, eta))
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __eq__(self, other):
        return (self._key == other._key if isinstance(other, MfbmParams)
                else NotImplemented)

    def __hash__(self) -> int:
        return self._hash

    @property
    def p(self) -> int:
        return self.H.shape[0]

    def alpha(self, j: int, k: int) -> float:
        """Combined exponent H_j + H_k of the (j, k) kernel."""
        return self._hs[j] + self._hs[k]

    def is_log_branch(self, j: int, k: int) -> bool:
        return abs(self.alpha(j, k) - 1.0) <= BRANCH_TOL

    def fingerprint(self) -> tuple:
        """(H, sigma, rho, eta) as tuples of floats, which == and hash compare."""
        return self._key

    @classmethod
    def bivariate(cls, h1: float, h2: float, rho: float = 0.0, eta: float = 0.0,
                  sigma1: float = 1.0, sigma2: float = 1.0) -> "MfbmParams":
        """Convenience constructor for the p = 2 case."""
        return cls(
            H=np.array([h1, h2]),
            sigma=np.array([sigma1, sigma2]),
            rho=np.array([[1.0, rho], [rho, 1.0]]),
            eta=np.array([[0.0, eta], [-eta, 0.0]]),
        )

    @classmethod
    def univariate(cls, h: float, sigma: float = 1.0) -> "MfbmParams":
        return cls(H=np.array([h]), sigma=np.array([sigma]),
                   rho=np.eye(1), eta=np.zeros((1, 1)))


def _check_index(params: MfbmParams, j: int, k: int) -> None:
    """Component indices: integers (``check_integer``), else an
    MfbmwaveError, in [0, p), else a ComponentIndexError."""
    j, k = check_integer("j", j), check_integer("k", k)
    if not (0 <= j < params.p and 0 <= k < params.p):
        raise ComponentIndexError(
            f"component indices ({j}, {k}) out of range for p={params.p}")


def kernel_both_signs(params: MfbmParams, j: int, k: int, a: np.ndarray):
    """(w_jk(a), w_jk(-a)) at magnitudes a > 0, from one power or log of a.

    (rho_jk - eta_jk) A and (rho_jk + eta_jk) A with A = a^(H_j+H_k) off the
    critical exponent, P + Q and P - Q with P = rho_jk a and
    Q = (eta_jk a) log a on it: the floating-point operations of
    w_jk(h) at h = a and h = -a.  ``a`` is overwritten and returned as one
    of the two.  The one statement of the two-branch formula, for
    :func:`kernel_w` and the embedding build.
    """
    rho, eta = params.rho[j, k], params.eta[j, k]
    if params.is_log_branch(j, k):
        pos = rho * a
        neg = eta * a
        np.log(a, out=a)
        neg *= a                # Q
        np.subtract(pos, neg, out=a)
        pos += neg
        return pos, a
    a **= params.alpha(j, k)    # the operator: numpy's ** takes sqrt at 0.5
    neg = (rho + eta) * a
    a *= rho - eta
    return a, neg


def kernel_w(params: MfbmParams, j: int, k: int, h):
    """Two-branch kernel w_jk(h) of the cross-covariance.

    Equals (rho_jk - eta_jk sign(h)) |h|^(H_j+H_k) off the critical exponent,
    and rho_jk |h| + eta_jk h log|h| when H_j + H_k = 1 (within BRANCH_TOL).
    Returns 0 at h = 0 in both branches (removable singularity).
    """
    _check_index(params, j, k)
    h_arr = np.asarray(h, dtype=float)
    scalar = h_arr.ndim == 0
    h_arr = np.atleast_1d(h_arr)
    out = np.zeros_like(h_arr)
    nz = h_arr != 0.0
    hz = h_arr[nz]
    pos, neg = kernel_both_signs(params, j, k, np.abs(hz))
    out[nz] = np.where(hz > 0.0, pos, neg)
    return float(out[0]) if scalar else out


def cross_covariance(params: MfbmParams, j: int, k: int, s, t):
    """E[x_j(s) x_k(t)] = (sigma_j sigma_k / 2) {w_jk(-s) + w_jk(t) - w_jk(t-s)}."""
    _check_index(params, j, k)
    s_arr = np.asarray(s, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    c = 0.5 * params.sigma[j] * params.sigma[k]
    out = c * (kernel_w(params, j, k, -s_arr)
               + kernel_w(params, j, k, t_arr)
               - kernel_w(params, j, k, t_arr - s_arr))
    return out


def increment_cross_covariance(params: MfbmParams, j: int, k: int, h, dt: float = 1.0):
    """Covariance of the step-dt increment processes at integer lag h.

    gamma_jk(h) = E[(x_j((i+h+1)dt) - x_j((i+h)dt)) (x_k((i+1)dt) - x_k(i dt))].
    Evaluating the kernel at the physical lags dt*(1-h), dt*(-1-h), dt*(-h) is
    exact in both branches; for H_j + H_k != 1 it coincides with the
    self-similar scaling dt^(H_j+H_k) gamma_jk(h at unit step).  ``dt``
    passes ``check_step``.
    """
    dt = check_step("dt", dt)
    _check_index(params, j, k)
    h_arr = np.asarray(h, dtype=float)
    c = 0.5 * params.sigma[j] * params.sigma[k]
    return c * (kernel_w(params, j, k, dt * (1.0 - h_arr))
                + kernel_w(params, j, k, dt * (-1.0 - h_arr))
                - 2.0 * kernel_w(params, j, k, dt * (-h_arr)))


def zeta(params: MfbmParams, j: int, k: int, omega):
    """Complex frequency weight zeta_jk(w) of the cross-spectral density.

    rho_jk sin(pi a/2) + i eta_jk cos(pi a/2) sign(w) for a = H_j + H_k != 1,
    rho_jk + i (pi/2) eta_jk sign(w) on the log branch a = 1.  Only the sign
    of ``omega`` enters.  A Python float (or int) gives a complex computed in
    plain floats; anything else is taken as an array.
    """
    _check_index(params, j, k)
    if isinstance(omega, (int, float)):
        # np.sign's value (0 at zero, NaN at NaN) without a numpy call
        sgn = 1.0 if omega > 0 else -1.0 if omega < 0 else float(abs(omega))
    else:
        sgn = np.sign(np.asarray(omega, dtype=float))
    rho = params.rho.item(j, k)
    eta = params.eta.item(j, k)
    if params.is_log_branch(j, k):
        out = rho + 1j * (math.pi / 2.0) * eta * sgn
    else:
        a = params.alpha(j, k)
        out = (rho * math.sin(math.pi * a / 2.0)
               + 1j * eta * math.cos(math.pi * a / 2.0) * sgn)
    return out if isinstance(sgn, np.ndarray) else complex(out)


def existence_matrix(params: MfbmParams) -> np.ndarray:
    """Hermitian matrix whose positive semidefiniteness characterizes existence.

    Entry (j, k) is Gamma(H_j+H_k+1) zeta_jk(w) at any w < 0, that is
    Gamma(a+1) (rho_jk sin(pi a/2) - i eta_jk cos(pi a/2)) for a = H_j+H_k
    off the log branch.  The diagonal reduces to Gamma(2 H_j + 1) sin(pi H_j).
    """
    p = params.p
    G = np.empty((p, p), dtype=complex)
    for j in range(p):
        for k in range(p):
            G[j, k] = math.gamma(params.alpha(j, k) + 1.0) * zeta(params, j, k, -1.0)
    return G


@dataclass(frozen=True)
class ExistenceResult:
    admissible: bool
    min_eigenvalue: float

    def __bool__(self) -> bool:
        return self.admissible


def check_existence(params: MfbmParams) -> ExistenceResult:
    """Admissibility test: smallest eigenvalue of the existence matrix >= -EIG_TOL."""
    evals = np.linalg.eigvalsh(existence_matrix(params))
    lam_min = float(evals[0])
    return ExistenceResult(admissible=lam_min >= -EIG_TOL, min_eigenvalue=lam_min)


def max_admissible_rho(h1: float, h2: float) -> float:
    """Supremum of admissible rho_12 for a bivariate process with eta = 0.

    Bisection of the admissibility test over rho in [0, 1], resolved to
    1e-4.  Returns 1.0 when no constraint binds (e.g. h1 = h2).  Exponents
    outside (0, 1) raise the InvalidParamsError of :class:`MfbmParams`.
    """
    def ok(rho: float) -> bool:
        return check_existence(MfbmParams.bivariate(h1, h2, rho=rho)).admissible

    if ok(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Serialization
#
# Text and binary formats store rho as its row-major lower triangle including
# the (unit) diagonal and eta as its row-major strict lower triangle, the
# order of np.tril_indices.  The text format is a line-oriented
# "key: values" document with keys p, H, sigma, rho, eta; '#' starts a
# comment.
# ---------------------------------------------------------------------------

_PARAM_KEYS = ("p", "H", "sigma", "rho", "eta")


def pack_triangles(params: MfbmParams) -> tuple[np.ndarray, np.ndarray]:
    """Row-major lower triangles: rho with its diagonal, eta without."""
    p = params.p
    return params.rho[np.tril_indices(p)], params.eta[np.tril_indices(p, -1)]


def unpack_triangles(p: int, rho_low, eta_low) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric rho and antisymmetric eta from their packed lower triangles.

    The inverse of :func:`pack_triangles`; rho keeps the packed diagonal.
    """
    rho = np.empty((p, p))
    rows, cols = np.tril_indices(p)
    rho[rows, cols] = rho[cols, rows] = rho_low
    eta = np.zeros((p, p))
    rows, cols = np.tril_indices(p, -1)
    eta[rows, cols] = eta_low
    eta[cols, rows] = -np.asarray(eta_low, dtype=float)
    return rho, eta


def params_to_text(params: MfbmParams) -> str:
    rho_low, eta_low = pack_triangles(params)
    lines = [
        f"p: {params.p}",
        "H: " + " ".join(f"{v:.17g}" for v in params.H),
        "sigma: " + " ".join(f"{v:.17g}" for v in params.sigma),
        "rho: " + " ".join(f"{v:.17g}" for v in rho_low),
        "eta: " + " ".join(f"{v:.17g}" for v in eta_low),
    ]
    return "\n".join(lines) + "\n"


def params_from_text(text: str) -> MfbmParams:
    """Parse the text document into an :class:`MfbmParams`.

    The parser checks what only text can get wrong: the line syntax, the
    keys, the numeric tokens, ``p`` as a positive integer and the number of
    values per key.  The constructor judges the values; a ParamsFormatError
    names the line of the entry either one finds at fault.
    """
    seen: dict[str, tuple[int, list[float]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParamsFormatError(lineno, f"expected 'key: values', got {raw!r}")
        key, _, rest = line.partition(":")
        key = key.strip()
        if key not in _PARAM_KEYS:
            raise ParamsFormatError(lineno, f"unknown key {key!r} (expected one of {_PARAM_KEYS})")
        if key in seen:
            raise ParamsFormatError(lineno, f"duplicate key {key!r}")
        try:
            values = [float(tok) for tok in rest.split()]
        except ValueError:
            raise ParamsFormatError(lineno, f"non-numeric value in {key!r} entry") from None
        seen[key] = (lineno, values)

    for key in _PARAM_KEYS:
        if key not in seen:
            raise ParamsFormatError(len(text.splitlines()) or 1, f"missing key {key!r}")

    lineno_p, pv = seen["p"]
    if len(pv) != 1 or not pv[0].is_integer() or pv[0] < 1:
        raise ParamsFormatError(lineno_p, "p must be a single positive integer")
    p = int(pv[0])
    for key, count in (("H", p), ("sigma", p), ("rho", p * (p + 1) // 2),
                       ("eta", p * (p - 1) // 2)):
        lineno, values = seen[key]
        if len(values) != count:
            raise ParamsFormatError(lineno, f"{key} must hold {count} value(s), got {len(values)}")

    rho, eta = unpack_triangles(p, seen["rho"][1], seen["eta"][1])
    try:
        return MfbmParams(H=np.array(seen["H"][1]), sigma=np.array(seen["sigma"][1]),
                          rho=rho, eta=eta)
    except InvalidParamsError as exc:
        raise ParamsFormatError(seen[exc.key][0], str(exc)) from exc


def save_params(params: MfbmParams, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(params_to_text(params))


def load_params(path) -> MfbmParams:
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParamsFormatError(data.count(b"\n", 0, exc.start) + 1,
                                f"not UTF-8 text ({exc.reason})") from None
    return params_from_text(text)
