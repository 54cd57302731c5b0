"""Benchmark of mfbmwave: ensemble synthesis, the CLI chain, long paths, theory.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ensemble-n64 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

One workload runs in one process, single-threaded and closed loop: set-up,
then whole rounds of the workload's operations until ``--seconds`` have
passed, then the checks and the checks' self-test.  ``--workload all`` runs
the four workloads one after another, each in its own process.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  A record of the
run (environment, checks, round times) and, when traced, the spans are
written under ``.perfbench_out/``.
"""

import time

_T0 = time.perf_counter()

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("ensemble-n64", "closure-n4096", "long-path-p3", "theory-verify")
MIN_ROUNDS = 2
WORKLOAD_TIMEOUT_S = 600

# The speed of the shared host drifts by +-20 % over seconds to minutes, for
# any code.  Untraced runs therefore also time a fixed kernel before each
# set-up and round and, every CALIBRATION_INTERVAL_S, between operations;
# its time is left out of the rounds.  Times are reported at reference
# speed: seconds x the kernel's reference time / its median time, of the
# samples before and during a round for round_s and of the whole run for
# the set-up part of setup_s.  Each workload names the kernel that follows
# its own work best (KERNELS).  A reference is the kernel's typical median
# within a run on the 2-core machine the benchmark was written on, so the
# figures read close to wall seconds there.
CALIBRATION_INTERVAL_S = 0.1

# setup_s starts with the import of mfbmwave, timed in this many fresh
# interpreters (median): a process imports only once, and an in-process
# kernel cannot follow the speed of another process.
IMPORT_REPEATS = 3
IMPORT_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import mfbmwave, mfbmwave.cli
print(time.perf_counter() - t)
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def load_library():
    """Import mfbmwave from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "mfbmwave" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no mfbmwave sources under {src}")
    sys.path.insert(0, str(src))
    import mfbmwave
    if Path(mfbmwave.__file__).resolve().parent != (src / "mfbmwave").resolve():
        raise SystemExit(f"perfbench: imported mfbmwave from {mfbmwave.__file__}")
    return mfbmwave


def metric_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, read through ctypes."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    mem_kb = None
    try:
        with open("/proc/meminfo", encoding="utf-8") as f:
            mem_kb = int(next(line for line in f if line.startswith("MemTotal")).split()[1])
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "ram_gb": round(mem_kb / 2 ** 20, 2) if mem_kb else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def calibrate(src, dst):
    """Fixed work that does not touch mfbmwave; returns its wall time.

    Rounds of the kind of work synthesis does per path, in plain numpy (a
    SeedSequence, a Philox draw, a complex einsum, a 128-point FFT, a
    cumulative sum, a 2x2 eigvalsh, a small object), then a copy of ``src``
    into ``dst`` for memory traffic.  The first 10 of the 60 rounds are not
    timed: they warm the caches the workload has left cold.
    """
    import numpy as np
    factor = np.ones((128, 2, 2), dtype=complex)
    block = np.eye(2, dtype=complex)
    t = 0.0
    for i in range(60):
        if i == 10:      # rounds before this only warm the caches
            t = time.perf_counter()
        key = int(np.random.SeedSequence([1, i]).generate_state(1, np.uint64)[0])
        z = np.random.Generator(np.random.Philox(key=key)).standard_normal((2, 128, 2))
        v = np.einsum("fij,fj->fi", factor, z[0] + 1j * z[1])
        y = np.cumsum(np.fft.ifft(v, axis=0).real, axis=0)
        np.linalg.eigvalsh(block)
        _Sample(values=y.T.copy(), seed=key)
    np.copyto(dst, src)
    return time.perf_counter() - t


@dataclass(frozen=True)
class _Sample:
    values: object
    seed: int


def small_kernel():
    """``calibrate`` on an 8 MB buffer pair: follows per-call overhead."""
    import numpy as np
    buffers = (np.ones(2 ** 20), np.empty(2 ** 20))
    return lambda: calibrate(*buffers)


def fft_kernel():
    """A quarter-size synthesis step in plain numpy: follows large FFTs.

    A Philox draw of 2^18 x 3 complex variates, the per-frequency 3 x 3
    einsum with a fixed factor, an inverse FFT of length 2^18 and a
    cumulative sum: the memory-bound work of a long path.
    """
    import numpy as np
    factor = np.full((2 ** 18, 3, 3), 0.1 + 0.0j)

    def run():
        t = time.perf_counter()
        z = np.random.Generator(np.random.Philox(key=7)).standard_normal((2, 2 ** 18, 3))
        v = np.einsum("fij,fj->fi", factor, z[0] + 1j * z[1])
        np.cumsum(np.fft.ifft(v, axis=0).real, axis=0)
        return time.perf_counter() - t
    return run


# kernel name -> (factory, reference time in seconds)
KERNELS = {"small": (small_kernel, 0.007), "fft": (fft_kernel, 0.075)}


class SpeedClock:
    """Samples the calibration kernel when one is due; keeps the samples."""

    def __init__(self, kernel):
        factory, self.reference = KERNELS[kernel]
        self._run = factory()
        self.samples = []
        self._last = -float("inf")

    def tick(self):
        """Run the kernel if one is due; returns the time it took, or 0."""
        if time.perf_counter() - self._last < CALIBRATION_INTERVAL_S:
            return 0.0
        d = self._run()
        self.samples.append(d)
        self._last = time.perf_counter()
        return d

    def factor(self, first=0):
        """Reference-speed factor from the samples taken since ``first``."""
        return self.reference / statistics.median(self.samples[first:])


def time_imports():
    """Wall times of importing mfbmwave in IMPORT_REPEATS fresh interpreters."""
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(ROOT / "src")],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def layer_metrics(names, tracer, wl, setup_phases, traced, untraced):
    """Per-layer values for one set-up plus one round.

    Set-up spans are divided by the number of set-ups, round spans by the
    number of traced rounds.  Stage spans (cli, verify, grid classes) give
    inclusive time, every other span its self time.
    """
    traced_phases = [r for r, _ in traced]
    setup = tracer.layer_totals(setup_phases)
    rounds = tracer.layer_totals(traced_phases)
    size, doublings = wl.embedding()
    t_on = statistics.median(t for _, t in traced)
    t_off = statistics.median(t for _, t in untraced)
    gauges = {
        "synth.circulant_size": size,
        "synth.embedding_doublings": doublings,
        "trace.overhead_s": t_on - t_off,
        "trace.overhead_pct": 100.0 * (t_on - t_off) / t_off,
    }
    out = {}
    for name in names:
        if name in gauges:
            out[name] = gauges[name]
        elif name in ("wavelets.cwt.coeffs", "containers.bytes_written"):
            out[name] = (tracer.counter_total(name, setup_phases) / len(setup_phases)
                         + tracer.counter_total(name, traced_phases) / len(traced_phases))
        else:
            span, _, kind = name.rpartition(".")
            index = {"calls": 0, "s": 2 if spans.is_stage(span) else 1}[kind]
            value = 0.0
            for totals, count in ((setup, len(setup_phases)), (rounds, len(traced_phases))):
                if span in totals:
                    value += totals[span][index] / count
            out[name] = value
    return out


def run_workload(args):
    mfbmwave = load_library()
    import_s = time.perf_counter() - _T0
    import workloads

    end_to_end, per_layer = metric_spec()
    tracer = spans.Tracer()
    if args.trace:
        tracer.install(mfbmwave)
    OUT.mkdir(exist_ok=True)
    import_times = time_imports()
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, tracer)
        clock = SpeedClock(wl.calibration)
        if not args.trace:
            # between operations too, so that long rounds are sampled
            wl.tick = clock.tick
        setup_times, setup_phases = [], []
        for i in range(wl.setup_repeats):
            clock.tick()
            tracer.phase, tracer.active = -1 - i, bool(args.trace)
            t = time.perf_counter()
            wl.setup(i)
            setup_times.append(time.perf_counter() - t)
            tracer.active = False
            setup_phases.append(-1 - i)

        # whole rounds until the time is up; traced runs alternate traced
        # and untraced rounds, and the difference is the tracing overhead
        attempted = failed = 0
        round_times, ref_times = [], []
        deadline = time.perf_counter() + args.seconds
        r = 0
        while r < MIN_ROUNDS or time.perf_counter() < deadline:
            clock.tick()
            first_sample = len(clock.samples) - 1
            traced = bool(args.trace) and r % 2 == 0
            tracer.phase, tracer.active = r, traced
            paused = wl.paused
            t = time.perf_counter()
            att, fail = wl.round(r)
            elapsed = time.perf_counter() - t - (wl.paused - paused)
            round_times.append((r, elapsed, traced))
            if not args.trace:
                # the kernel samples just before and during this round
                ref_times.append(elapsed * clock.factor(first_sample))
            tracer.active = False
            attempted += att
            failed += fail
            wl.absorb(r)
            r += 1
        clock.tick()

        wl.final_checks()
        check_results = wl.summary()
        self_tests = wl.self_tests()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = [t for _, t, _ in round_times]
    correct = (all(ok for ok, _ in check_results.values())
               and all(not ok for ok, _ in self_tests.values()))
    if args.trace:
        names = [m["name"] for m in per_layer]
        units = {m["name"]: m["unit"] for m in per_layer}
        values = layer_metrics(names, tracer, wl, setup_phases,
                               [(r, t) for r, t, on in round_times if on],
                               [(r, t) for r, t, on in round_times if not on])
    else:
        names = [m["name"] for m in end_to_end]
        units = {m["name"]: m["unit"] for m in end_to_end}
        values = {
            "setup_s": (statistics.median(import_times)
                        + clock.factor() * statistics.median(setup_times)),
            "round_s": statistics.median(ref_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    metrics = {name: {"value": values[name], "unit": units[name]} for name in names}

    env = environment(args.seed)
    headline = wl.headline(times)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "import_s": import_s,
        "import_times_s": import_times, "calibration_kernel": wl.calibration,
        "setup_times_s": setup_times, "round_times_s": times,
        "calibration_s": clock.samples,
        "headline": headline, "errors": wl.errors[:20],
        "checks": {k: {"passed": ok, "detail": d} for k, (ok, d) in check_results.items()},
        "self_tests": {k: {"rejected": not ok, "detail": d}
                       for k, (ok, d) in self_tests.items()},
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2, default=float))
    if args.trace:
        tracer.write_spans(stem.with_suffix(".spans.csv"))

    print(f"env {json.dumps(env)}")
    for name, (ok, detail) in check_results.items():
        print(f"check {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    for name, (ok, detail) in self_tests.items():
        print(f"self-test {name}: {'rejected' if not ok else 'NOT REJECTED'} ({detail})")
    for err in wl.errors[:5]:
        print(f"failed operation: {err}")
    print(f"{args.workload}: {len(times)} rounds, "
          + ", ".join(f"{k} {v:.6g}" if isinstance(v, float) else f"{k} {v}"
                      for k, v in headline.items()))
    for name in names:
        print(f"metric {name} = {values[name]:.6g} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# All workloads
# ---------------------------------------------------------------------------

def run_all(args):
    """Each workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=WORKLOAD_TIMEOUT_S, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"[{name}] exited with status {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    if status:
        return status
    print(json.dumps(merged))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
