"""Measurement loop, span tracer and per-layer metrics for the benchmark.

The tracer records spans from the benchmark's own code: it replaces each
public function and method of the traced curvecross modules, under every
name the function is bound to, with a wrapper that appends
[name, op, parent, start, end, error, attrs] to an in-memory list.  The
program under test is not modified on disk and carries no timers of its
own.  Spans are written out once, when the run ends.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import inspect
import os
import signal
import statistics
import sys
import time
import traceback

# Layers are curvecross modules; each gets <layer>.self_frac and
# <layer>.errors.  Time inside an operation but outside every layer span
# is the benchmark's own ("bench").
LAYERS = ("cli", "config", "spectra", "coupled", "resolvent", "model", "wavepacket")

# Private functions traced in addition to the public ones: the CLI's file
# writers, so that output I/O is separable from computation.
EXTRA = {"cli": ("_write_csv", "_write_sidecar")}

# Bytes stored per grid node by one RK4 sweep: the u and u' mantissas
# (complex128) and the log-scale offset (float64).
SWEEP_BYTES_PER_NODE = 16 + 16 + 8

FFT_FUNCTIONS = (("numpy.fft", ("fft", "ifft")), ("scipy.fft", ("fft", "ifft")))


def _annotate_build(args, kwargs, result):
    curve = args[0] if args else kwargs["curve"]
    zs = args[1] if len(args) > 1 else kwargs["zs"]
    grid = args[2] if len(args) > 2 else kwargs.get("grid")
    if grid is None:
        from curvecross.model import DEFAULT_GRID

        grid = DEFAULT_GRID
    energies = [complex(z).real for z in _flat(zs)]
    return {"nz": len(energies), "n": grid.n, "surface": type(curve).__name__,
            "energies": energies}


def _annotate_write(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _flat(values):
    if hasattr(values, "ravel"):
        return values.ravel().tolist()
    if isinstance(values, (list, tuple)):
        return list(values)
    return [values]


ANNOTATE = {
    "resolvent.build_resolvent_batch": _annotate_build,
    "cli._write_csv": _annotate_write,
    "cli._write_sidecar": _annotate_write,
}


class Tracer:
    """In-memory span recorder installed around curvecross's functions."""

    def __init__(self):
        self.spans = []
        self.enabled = False
        self.op = None
        self._stack = []
        self._restore = []

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap every public function of the traced layers under all the
        names it is bound to in loaded curvecross modules."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "curvecross" or name.startswith("curvecross.")}
        for layer in LAYERS:
            mod = modules.get(f"curvecross.{layer}")
            if mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isclass(value) and value.__module__ == mod.__name__:
                    self._wrap_class(layer, value)
                elif _traceable(value, mod) and (
                    not attr.startswith("_") or attr in EXTRA.get(layer, ())
                ):
                    wrapped = self._wrapper(f"{layer}.{attr}", value)
                    for other in modules.values():
                        for alias, bound in list(vars(other).items()):
                            if bound is value:
                                self._set(other, alias, wrapped)
        for module_name, names in FFT_FUNCTIONS:
            mod = sys.modules.get(module_name)
            if mod is None:
                continue
            for name in names:
                self._set(mod, name, self._fft_counter(getattr(mod, name)))

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _set(self, owner, name, value):
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap_class(self, layer, cls):
        for attr, value in list(vars(cls).items()):
            public = not attr.startswith("_") or attr == "__init__"
            if public and inspect.isfunction(value) and not inspect.isgeneratorfunction(value):
                self._set(cls, attr, self._wrapper(f"{layer}.{cls.__name__}.{attr}", value))

    # -- recording ------------------------------------------------------

    def _wrapper(self, name, fn):
        annotate = ANNOTATE.get(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, self.op, stack[-1] if stack else None, 0.0, 0.0, False, None]
            spans.append(span)
            stack.append(index)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if annotate is not None:
                span[6] = annotate(args, kwargs, result)
            return result

        return traced

    def _fft_counter(self, fn):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def counted(x, *args, **kwargs):
            result = fn(x, *args, **kwargs)
            if self.enabled and stack:
                attrs = spans[stack[-1]][6]
                if attrs is None:
                    attrs = spans[stack[-1]][6] = {}
                attrs["fft_calls"] = attrs.get("fft_calls", 0) + 1
                attrs["fft_bytes"] = (attrs.get("fft_bytes", 0)
                                      + getattr(x, "nbytes", 0) + result.nbytes)
            return result

        return counted

    @contextlib.contextmanager
    def span(self, name, op):
        """Root span of one operation of the benchmark; tracing is on only
        inside it."""
        index = len(self.spans)
        self.spans.append([name, op, None, time.perf_counter(), 0.0, False, None])
        self._stack.append(index)
        self.op = op
        self.enabled = True
        try:
            yield
        except BaseException:
            self.spans[index][5] = True
            raise
        finally:
            self.enabled = False
            self.spans[index][4] = time.perf_counter()
            self._stack.pop()
            self.op = None


def _traceable(value, mod):
    return (inspect.isfunction(value) and value.__module__ == mod.__name__
            and not inspect.isgeneratorfunction(value))


# -- host-speed gauge -------------------------------------------------------

# The host's speed drifts by up to about 2x, in spells from under a second
# to minutes, with CPU time tracking wall time, so a run's median wall
# time says as much about the host as about the program.  During an
# untraced run a SIGALRM handler runs a fixed kernel that uses no
# curvecross code every GAUGE_INTERVAL_S of wall time, inside operations
# and between them, and records how long the kernel took.  The handler's
# time is taken out of the operation it interrupted.  Each operation's
# wall time is then scaled by GAUGE_NOMINAL_MS over the kernel's mean time
# during that operation: to a host on which the kernel takes
# GAUGE_NOMINAL_MS.  An operation shorter than GAUGE_WINDOW samples takes
# the nearest GAUGE_WINDOW samples around it.  The samples are evenly
# spaced in time and averaged, so the gauge weighs fast and slow spells
# as the operation's wall time does.  The kernel mixes the
# program's two kinds of work: a Python loop of ufunc calls on a
# two-element array (the RK4 sweeps at small nz) and a 16384-point FFT
# (the wavepacket step).  Set-up times are scaled the same way, by
# GAUGE_WINDOW samples taken back to back before and after each set-up.
GAUGE_NOMINAL_MS = 2.5
GAUGE_INTERVAL_S = 0.1
GAUGE_WINDOW = 10
GAUGE_LOOP = 500


class Gauge:
    """Samples the host's speed: from a SIGALRM handler while active, and
    whenever sample() is called."""

    def __init__(self, active=True):
        import numpy as np

        self.active = active
        self.samples = []  # kernel times, ms
        self.at = []  # perf_counter() at the start of each sample
        self.spent = 0.0  # seconds spent in the handler
        self._small = np.ones(2, dtype=complex)
        self._wave = np.exp(1j * np.linspace(0.0, 50.0, 16384))
        self._fft = np.fft

    def __enter__(self):
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, GAUGE_INTERVAL_S, GAUGE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame):
        self.sample()

    def sample(self, count=1):
        """Time the kernel `count` times, back to back."""
        for _ in range(count):
            t0 = time.perf_counter()
            x = small = self._small
            for _ in range(GAUGE_LOOP):
                x = 0.5 * (x * 0.999 + small)
            self._fft.ifft(self._fft.fft(self._wave))
            t1 = time.perf_counter()
            self.samples.append((t1 - t0) * 1e3)
            self.at.append(t0)
            self.spent += t1 - t0

    def scaled(self, wall, t0, t1):
        """wall, timed from t0 to t1, at the nominal host speed: scaled by
        GAUGE_NOMINAL_MS over the mean of the samples taken between t0 and
        t1, widened one sample at a time on alternate sides to
        GAUGE_WINDOW samples."""
        at = self.at
        i, j = bisect.bisect_left(at, t0), bisect.bisect_right(at, t1)
        while j - i < GAUGE_WINDOW and (i > 0 or j < len(at)):
            if i > 0:
                i -= 1
            if j < len(at) and j - i < GAUGE_WINDOW:
                j += 1
        return wall * GAUGE_NOMINAL_MS / statistics.fmean(self.samples[i:j])


# -- measurement loop -------------------------------------------------------


class Outcome:
    """Per-operation results of a measured run."""

    def __init__(self):
        self.walls = []
        self.spans = []  # (start, end) of each operation, perf_counter()
        self.gauge = None
        self.traced = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.accuracy = []
        self.facts = []

    def walls_where(self, traced):
        return [w for w, t in zip(self.walls, self.traced) if t == traced]

    def scaled_walls(self):
        """Wall times at the nominal host speed (see GAUGE_NOMINAL_MS)."""
        return [self.gauge.scaled(w, t0, t1) for w, (t0, t1) in zip(self.walls, self.spans)]


def measure(workload, rng, seconds, tracer=None):
    """Run operations until the next one would end after `seconds`, or
    exactly workload.OPS operations when the workload fixes their number.

    Each operation's inputs are drawn from rng before its timer starts;
    its outputs are checked after the timer stops.  A failed check or an
    exception counts the operation as failed.  At least one operation
    always runs.  Without a tracer the host-speed gauge samples the whole
    run.  With a tracer it is off, and operations alternate in groups of
    workload.GROUP between untraced and traced, so that both kinds sample
    the same stretch of machine time, and at least one group of each runs.
    """
    out = Outcome()
    with Gauge(active=tracer is None) as gauge:
        _loop(workload, rng, seconds, tracer, gauge, out)
    if gauge.active and not gauge.samples:  # a run shorter than one interval
        gauge.sample()
    out.gauge = gauge
    return out


def _loop(workload, rng, seconds, tracer, gauge, out):
    group = workload.GROUP
    min_ops = 2 * group if tracer is not None else 1
    fixed = workload.OPS
    start = time.perf_counter()
    iterations = []
    op = 0
    while True:
        t_iter = time.perf_counter()
        inputs = workload.draw(rng)
        traced = tracer is not None and (op // group) % 2 == 1
        result = None
        error = None
        spent = gauge.spent
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.span("op", op):
                    result = workload.run(inputs)
            else:
                result = workload.run(inputs)
        except Exception:
            error = traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        out.attempted += 1
        out.walls.append(t1 - t0 - (gauge.spent - spent))
        out.spans.append((t0, t1))
        out.traced.append(traced)
        if error is None:
            try:
                problems, accuracy, facts = workload.check(inputs, result)
            except Exception:
                problems, accuracy, facts = [traceback.format_exc(limit=3)], None, {}
            if accuracy is not None:
                out.accuracy.append(accuracy)
            out.facts.append(facts)
        else:
            problems = [error]
        if problems:
            out.failed += 1
            out.errors.extend(f"op {op}: {p}" for p in problems)
        op += 1
        iterations.append(time.perf_counter() - t_iter)
        if fixed is not None:
            if op >= max(fixed, min_ops):
                return
            continue
        elapsed = time.perf_counter() - start
        if op >= min_ops and elapsed + statistics.fmean(iterations) > seconds:
            return


# -- statistics -------------------------------------------------------------


def tail(values):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples_beyond).  With 20 or fewer
    samples that percentile would not lie above the median; the maximum
    is returned then, with the number of samples beyond it (zero) stated.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 20:
        return ordered[-1], 100.0, 0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def layer_metrics(spans, accuracy, overhead_frac):
    """Per-layer metrics from the spans of the traced operations.

    Counts are per operation, so that runs of different length compare.
    Per-call times are 0 where a layer made no calls on the workload.
    """
    ops = [s for s in spans if s[0] == "op"]
    op_ids = {s[1] for s in ops}
    n_ops = max(len(ops), 1)
    op_wall = sum(s[4] - s[3] for s in ops)
    in_ops = [s for s in spans if s[1] in op_ids and s[0] != "op"]

    child_time = [0.0] * len(spans)
    index_of = {id(s): i for i, s in enumerate(spans)}
    for s in spans:
        if s[2] is not None:
            child_time[s[2]] += s[4] - s[3]

    def dur(s):
        return s[4] - s[3]

    def self_time(s):
        return dur(s) - child_time[index_of[id(s)]]

    def named(name, pool=in_ops):
        return [s for s in pool if s[0] == name]

    def per_call(name, scale, self_only=False):
        calls = named(name)
        if not calls:
            return 0.0
        total = sum(self_time(s) if self_only else dur(s) for s in calls)
        return total / len(calls) * scale

    m = {}
    builds = named("resolvent.build_resolvent_batch")
    nz = sum(s[6]["nz"] for s in builds)
    node_steps = sum(s[6]["nz"] * 2 * (s[6]["n"] - 1) for s in builds)
    build_time = sum(dur(s) for s in builds)
    m["resolvent.build.ms_per_z"] = build_time / nz * 1e3 if nz else 0.0
    m["resolvent.build.calls"] = len(builds) / n_ops
    m["resolvent.z_solved"] = nz / n_ops

    allowed = [s for s in builds if s[6]["surface"] == "HarmonicCurve"]
    distinct = 0
    for op in op_ids:
        distinct += len({e for s in allowed if s[1] == op for e in s[6]["energies"]})
    m["resolvent.sweeps_per_energy"] = (
        sum(s[6]["nz"] for s in allowed) / distinct if distinct else 0.0
    )

    g11 = named("coupled.CoupledBlocks.g11")
    g11_index = {index_of[id(s)] for s in g11}
    quadratures = [
        s for s in in_ops
        if s[0] in ("resolvent.ResolventEvaluator.matrix_element",
                    "resolvent.ResolventEvaluator.vector")
        and s[2] in g11_index
    ]
    m["resolvent.quadratures_per_amplitude"] = len(quadratures) / len(g11) if g11 else 0.0
    m["resolvent.matrix_element.ms_per_call"] = per_call(
        "resolvent.ResolventEvaluator.matrix_element", 1e3)
    m["resolvent.vector.ms_per_call"] = per_call("resolvent.ResolventEvaluator.vector", 1e3)
    m["resolvent.point.us_per_call"] = per_call("resolvent.ResolventEvaluator.point", 1e6)
    m["resolvent.rk4_ns_per_node_step"] = build_time / node_steps * 1e9 if node_steps else 0.0
    m["resolvent.rk4_node_steps"] = node_steps / n_ops
    m["resolvent.sweep_bytes_computed"] = (
        sum(s[6]["nz"] * 2 * s[6]["n"] * SWEEP_BYTES_PER_NODE for s in builds) / n_ops
    )

    m["coupled.g11.self_ms_per_call"] = per_call("coupled.CoupledBlocks.g11", 1e3, True)
    m["coupled.g21_row.ms_per_call"] = per_call("coupled.CoupledBlocks.g21_row", 1e3)

    m["spectra.self_ms"] = sum(self_time(s) for s in in_ops
                               if s[0].startswith("spectra.")) / n_ops * 1e3
    writes = [s for s in in_ops if s[0] in ("cli._write_csv", "cli._write_sidecar")]
    m["cli.io_ms"] = sum(dur(s) for s in writes) / n_ops * 1e3
    m["cli.bytes_written"] = sum(s[6]["bytes"] for s in writes) / n_ops
    eig = named("model.harmonic_eigenstates", spans)
    m["model.eigenstates.ms"] = sum(dur(s) for s in eig) / len(eig) * 1e3 if eig else 0.0

    steps = named("wavepacket.SplitStepPropagator.step")
    m["wavepacket.step.calls"] = len(steps) / n_ops
    m["wavepacket.step.us_per_call"] = per_call("wavepacket.SplitStepPropagator.step", 1e6)
    hf_self = sum(self_time(s) for s in named("wavepacket.half_fourier"))
    m["wavepacket.half_fourier.self_us_per_step"] = hf_self / len(steps) * 1e6 if steps else 0.0
    fft_attrs = [s[6] or {} for s in steps]
    m["wavepacket.fft_per_step_computed"] = (
        sum(a.get("fft_calls", 0) for a in fft_attrs) / len(steps) if steps else 0.0
    )
    m["wavepacket.step_bytes_computed"] = (
        sum(a.get("fft_bytes", 0) for a in fft_attrs) / len(steps) if steps else 0.0
    )

    layered = 0.0
    for layer in LAYERS:
        own = sum(self_time(s) for s in in_ops if s[0].split(".", 1)[0] == layer)
        layered += own
        m[f"{layer}.self_frac"] = own / op_wall if op_wall else 0.0
        m[f"{layer}.errors"] = sum(1 for s in spans if s[5] and s[0].split(".", 1)[0] == layer)
    m["bench.self_frac"] = (op_wall - layered) / op_wall if op_wall else 0.0
    m["check.max_rel_err"] = max(accuracy) if accuracy else 0.0
    m["trace.overhead_frac"] = overhead_frac
    return m
