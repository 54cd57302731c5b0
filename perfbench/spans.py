"""In-memory span tracer for the benchmark.

Spans are recorded around calls into the public functions of each
``mfbmwave`` module.  The tracer replaces every reference to a traced
function in the loaded ``mfbmwave`` modules by a wrapper, so calls the
library makes into its own public names (``replicate_ensemble`` ->
``simulate`` -> ``check_existence``, ``theoretical_wavelet_cov`` ->
``quad_checked``) are recorded too.  Nothing in the library is edited on
disk.

A span is (id, parent id, name, start, end, phase), where the phase is the
set-up repetition or the round that caused it.  Spans stay in memory until
the run ends; :meth:`Tracer.write_spans` then writes them out.  A layer's
self time is its span's duration minus the durations of its child spans
(one thread, so children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time

# (module, function) pairs whose calls are recorded as spans.
TRACED = (
    ("model", "check_existence"),
    ("model", "increment_cross_covariance"),
    ("synth", "build_embedding"),
    ("synth", "simulate"),
    ("synth", "replicate_ensemble"),
    ("synth", "derive_seed"),
    ("wavelets", "cwt"),
    ("wavstats", "theoretical_wavelet_cov"),
    ("wavstats", "scale_law_constant"),
    ("quadrature", "quad_checked"),
    ("spectral", "inverse_spectral_cov"),
    ("spectral", "bahr_essen_eval"),
    ("estimate", "empirical_wavelet_cov"),
    ("containers", "save_path_file"),
    ("containers", "load_path_file"),
    ("containers", "path_to_csv_file"),
    ("containers", "save_field_file"),
    ("containers", "field_to_csv_file"),
)

# Spans the benchmark opens around whole stages (a CLI step, a verify suite,
# a class of covariance queries).  They are reported as inclusive wall time;
# every other span is reported as self time.
STAGE_PREFIXES = ("cli.", "verify.", "wavstats.cov.")

_WRITERS = {"save_path_file", "path_to_csv_file", "save_field_file",
            "field_to_csv_file"}


class Tracer:
    def __init__(self):
        self.active = False
        self.phase = 0
        self.spans = []          # [id, parent, name, t0, t1, phase]
        self.counters = {}       # (name, phase) -> value
        self._stack = []

    # -- recording -------------------------------------------------------

    def _open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, name, time.perf_counter(), 0.0, self.phase])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    def add(self, name, value):
        key = (name, self.phase)
        self.counters[key] = self.counters.get(key, 0) + value

    @contextlib.contextmanager
    def span(self, name):
        if not self.active:
            yield
            return
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, name, fn):
        tracer = self
        short = name.rsplit(".", 1)[1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if short in _WRITERS:
                target = args[1] if len(args) > 1 else kwargs["filename"]
                tracer.add("containers.bytes_written", os.path.getsize(target))
            elif short == "cwt":
                tracer.add("wavelets.cwt.coeffs", out.coeffs.size)
            return out

        return wrapper

    def install(self, package):
        """Route every reference to a traced function through a span wrapper."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == package.__name__ or key.startswith(package.__name__ + ".")]
        for modname, fname in TRACED:
            owner = sys.modules[f"{package.__name__}.{modname}"]
            original = getattr(owner, fname)
            wrapper = self._wrap(f"{modname}.{fname}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    # -- reporting -------------------------------------------------------

    def layer_totals(self, phases):
        """Per-name (calls, self seconds, inclusive seconds) over ``phases``."""
        phases = set(phases)
        child = [0.0] * len(self.spans)
        for sid, parent, _, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for sid, _, name, t0, t1, phase in self.spans:
            if phase not in phases:
                continue
            calls, self_s, incl_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, self_s + (t1 - t0) - child[sid], incl_s + (t1 - t0))
        return out

    def counter_total(self, name, phases):
        phases = set(phases)
        return sum(v for (n, ph), v in self.counters.items()
                   if n == name and ph in phases)

    def write_spans(self, filename):
        with open(filename, "w", encoding="utf-8") as f:
            f.write("id,parent,name,start_s,end_s,phase\n")
            for sid, parent, name, t0, t1, phase in self.spans:
                f.write(f"{sid},{parent},{name},{t0:.9f},{t1:.9f},{phase}\n")


def is_stage(name):
    return name.startswith(STAGE_PREFIXES)
