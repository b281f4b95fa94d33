"""The three benchmark workloads: spectra, probe and crosscheck.

Each workload has
  setup()        everything a process does before its first timed call;
  draw(rng)      the inputs of one operation, from the seeded generator;
  run(inputs)    one timed operation through curvecross's public API;
  check(inputs, result) -> (problems, accuracy, facts)
                 the correctness checks, untimed;
  OPS            a fixed number of operations per run, or None to run
                 operations until the time is up.

Functions are called through their modules (cli.main, resolvent.
build_resolvent, ...) so that the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import tempfile
import warnings
from dataclasses import replace

import numpy as np

from curvecross import cli, coupled, model as model_mod, resolvent, spectra, wavepacket
from curvecross.config import RunConfig
from curvecross.errors import TailTruncationWarning
from curvecross.model import Grid

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# Relative tolerance of the oracle and reference checks.  The program's
# uncoupled elements are within about 3e-8 of the oracle, so 1e-6 accepts
# any equally accurate method (another discretisation, other chunk sizes)
# and still rejects a wrong answer.
RTOL = 1e-6
WRONSKIAN_LIMIT = 1e-8
DEVIATION_LIMIT = 0.02


class Oracle:
    """The allowed-surface resolvent as an eigenfunction expansion, the
    uncoupled oracle, independent of the ODE sweeps.

    <chi_f|G|chi_0> = sum_n <phi_n|chi_f> <phi_n|chi_0> / (z - E_n), n <= 200:
    the matrix element of resolvent.HarmonicSpectralSum(n_max=200), term
    by term.  The overlaps do not depend on z; they are read from
    reference/oracle_overlaps.csv rather than recomputed, so that a check
    is a 201-term sum and allocates no eigenstate table.
    """

    def __init__(self, model):
        with open(os.path.join(REFERENCE_DIR, "oracle_overlaps.csv"), encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        if lines[0] != "n,phi_n_chi0,phi_n_chi1":
            raise ValueError(f"oracle_overlaps.csv: unexpected header {lines[0]!r}")
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        self.model = model
        self.overlaps = (table[:, 1], table[:, 2])
        self.energies = model.allowed.eigenvalue(table[:, 0])

    def element(self, omega, n_f):
        """<chi_{n_f}|G(z)|chi_0> at the photon energy omega."""
        weights = 1.0 / (complex(self.model.resolvent_argument(omega)) - self.energies)
        return complex(np.sum(self.overlaps[n_f] * self.overlaps[0] * weights))


def _rel(a, b):
    return abs(a - b) / abs(b)


def _read_csv(path):
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if lines[0] != "omega_cm1,intensity":
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


class Spectra:
    """The default `curvecross absorption` and `curvecross raman` jobs,
    coupled plus uncoupled, on the default 4096-node grid.

    One operation is one CLI job on one chunk of 64 photon energies spaced
    60 cm^-1, which spans the default 9500-13500 cm^-1 window.  Jobs
    alternate: an absorption job on a new window, then the Raman job on
    the same window, so that D_R > D_A can be checked.  Each window's start
    is drawn from the seed among six offsets 10 cm^-1 apart, so every
    energy is a row of the default 10 cm^-1 scan and can be compared with
    the reference recorded from it.
    """

    name = "spectra"
    OPS = None
    GROUP = 2  # an absorption job and the Raman job on the same window
    STEP = 60.0
    OFFSETS = 6

    def __init__(self, workdir, n_energies=64):
        self.workdir = workdir
        self.n_energies = n_energies
        self._next_job = "absorption"
        self._start = None
        self._absorption = {}

    def setup(self):
        self.config = RunConfig().validate()
        self.model = self.config.to_model()
        self.oracle = Oracle(self.model)
        self.reference = {
            kind: dict(map(tuple, _read_csv(os.path.join(REFERENCE_DIR, f"{kind}_coupled.csv"))))
            for kind in ("absorption", "raman")
        }

    def draw(self, rng):
        job = self._next_job
        if job == "absorption":
            self._start = self.config.omega_min_cm1 + 10.0 * int(rng.integers(self.OFFSETS))
        self._next_job = "raman" if job == "absorption" else "absorption"
        start = self._start
        stop = start + (self.n_energies - 1) * self.STEP
        directory = tempfile.mkdtemp(prefix=f"{job}-", dir=self.workdir)
        path = os.path.join(directory, "scan.ini")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                f"[scan]\nomega_min_cm1 = {start!r}\nomega_max_cm1 = {stop!r}\n"
                f"omega_step_cm1 = {self.STEP!r}\n"
            )
        return {"job": job, "dir": directory, "config": path, "start": start}

    def run(self, inputs):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([inputs["job"], "--config", inputs["config"], "--out", inputs["dir"]])

    def check(self, inputs, code):
        try:
            return self._check(inputs, code)
        finally:
            shutil.rmtree(inputs["dir"], ignore_errors=True)

    def _check(self, inputs, code):
        job = inputs["job"]
        if code != 0:
            return [f"{job} exit code {code}"], None, {}
        coupled_, uncoupled = (
            _read_csv(os.path.join(inputs["dir"], f"{job}_{kind}.csv"))
            for kind in ("coupled", "uncoupled")
        )
        omega = inputs["start"] + self.STEP * np.arange(self.n_energies)
        for data in (coupled_, uncoupled):
            if data.shape != (self.n_energies, 2) or not np.array_equal(data[:, 0], omega):
                return [f"{job}: wrong energy grid"], None, {}
        coupled_, uncoupled = coupled_[:, 1], uncoupled[:, 1]

        problems = []
        ref = np.array([self.reference[job][w] for w in omega])
        worst = float(np.max(np.abs(coupled_ - ref) / np.abs(ref)))
        if not worst <= RTOL:
            problems.append(f"{job}_coupled differs from the reference by {worst:.2e}")

        worst_oracle = 0.0
        n_f = 0 if job == "absorption" else 1
        for value, w in zip(uncoupled, omega):
            amplitude = 1j * self.oracle.element(w, n_f)
            expected = amplitude.real if job == "absorption" else abs(amplitude) ** 2
            worst_oracle = max(worst_oracle, _rel(value, expected))
        if not worst_oracle <= RTOL:
            problems.append(f"{job}_uncoupled differs from the oracle by {worst_oracle:.2e}")

        facts = {}
        if job == "absorption":
            if not np.all(coupled_ > 0.0):
                problems.append("coupled absorption is not positive")
            self._absorption[inputs["start"]] = (coupled_, uncoupled)
        elif inputs["start"] in self._absorption:
            a_c, a_u = self._absorption.pop(inputs["start"])

            def deviation(c, u):
                return spectra.deviation_metric(spectra.Spectrum(omega, c, job),
                                                spectra.Spectrum(omega, u, job))

            d_a, d_r = deviation(a_c, a_u), deviation(coupled_, uncoupled)
            if not d_r > d_a > 0.0:
                problems.append(f"D_R = {d_r:.4f} > D_A = {d_a:.4f} > 0 fails")
            facts = {"D_A": d_a, "D_R": d_r}
        return problems, float(worst_oracle), facts


class Probe:
    """Single-energy requests: build G1 and G2 at one z and return
    <chi0|G11|chi0> and <chi1|G11|chi0> through CoupledBlocks."""

    name = "probe"
    OPS = None
    GROUP = 1
    OMEGA_RANGE = (9500.0, 13500.0)

    def __init__(self, workdir):
        self.workdir = workdir

    def setup(self):
        self.config = RunConfig().validate()
        self.model = self.config.to_model()
        self.grid = self.config.to_grid()
        self.chi = model_mod.harmonic_eigenstates(self.model.ground, 1, self.grid.points)
        self.oracle = Oracle(self.model)

    def draw(self, rng):
        return float(rng.uniform(*self.OMEGA_RANGE))

    def run(self, omega):
        m = self.model
        z = m.resolvent_argument(omega)
        ev1 = resolvent.build_resolvent(m.allowed, z, self.grid)
        ev2 = resolvent.build_resolvent(m.forbidden, z, self.grid)
        blocks = coupled.CoupledBlocks(ev1, ev2, m.coupling.strength, m.coupling.location)
        return blocks, blocks.g11(self.chi[0], self.chi[0]), blocks.g11(self.chi[1], self.chi[0])

    def check(self, omega, result):
        blocks, g00, g10 = result
        problems = []
        drift = max(blocks.ev1.wronskian_drift, blocks.ev2.wronskian_drift)
        if not drift < WRONSKIAN_LIMIT:
            problems.append(f"Wronskian drift {drift:.2e}")
        err = max(_rel(g00.direct, self.oracle.element(omega, 0)),
                  _rel(g10.direct, self.oracle.element(omega, 1)))
        if not err <= RTOL:
            problems.append(f"uncoupled element differs from the oracle by {err:.2e}")
        # |<1|G11|0>|^2 <= min(A_0, A_1) / Gamma with A_n = -Im <n|G11|n>
        a0 = -g00.value.imag
        a1 = -blocks.g11(self.chi[1], self.chi[1]).value.imag
        ratio = abs(g10.value) ** 2 * self.model.damping / min(a0, a1)
        if not (a0 > 0.0 and a1 > 0.0 and ratio <= 1.0):
            problems.append(f"Cauchy-Schwarz bound fails: ratio {ratio:.3f}")
        return problems, float(err), {"drift": drift, "cs_ratio": ratio}


class Crosscheck:
    """The wavepacket cross-check of `validate`: verify_resolvent_identity
    on a 16384-node grid with dt = DEFAULT_DT/4 and a coupling Gaussian two
    steps wide, run to e^-8 damping, at three photon energies.

    The damping is 1800 cm^-1, four times the standard 450 cm^-1, so that
    one check propagates 1888 steps instead of 7551 and several checks fit
    in one run.  The step kernel and its grid are those of `validate`.
    A run is a fixed three checks, so that every run takes its median and
    maximum over the same number of samples.
    """

    name = "crosscheck"
    OPS = 3
    GROUP = 1
    DAMPING_CM1 = 1800.0
    DELTA_WIDTH = 2.0
    OMEGA_RANGE = (10200.0, 12600.0)
    N_ENERGIES = 3

    def __init__(self, workdir, wp_points=16384, dt_fraction=0.25):
        self.workdir = workdir
        self.wp_points = wp_points
        self.dt_fraction = dt_fraction

    def setup(self):
        self.config = replace(RunConfig(), damping_cm1=self.DAMPING_CM1).validate()
        self.model = self.config.to_model()
        self.wp_grid = Grid(-3.0, 1.5, self.wp_points)

    def draw(self, rng):
        return np.sort(rng.uniform(*self.OMEGA_RANGE, size=self.N_ENERGIES))

    def run(self, omegas):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", TailTruncationWarning)
            report = wavepacket.verify_resolvent_identity(
                self.model,
                omegas,
                dt=self.dt_fraction * wavepacket.DEFAULT_DT,
                delta_width=self.DELTA_WIDTH,
                wp_grid=self.wp_grid,
            )
        return report, [str(w.message) for w in caught
                        if issubclass(w.category, TailTruncationWarning)]

    def check(self, omegas, result):
        report, caught = result
        problems = [f"warning: {text}" for text in caught]
        devs = report.deviation_g11_elastic + report.deviation_g11_raman
        if len(devs) != 2 * len(omegas) or not all(math.isfinite(d) for d in devs):
            return problems + ["missing or non-finite deviations"], None, {}
        worst = max(devs)
        if not worst < DEVIATION_LIMIT:
            problems.append(f"G11 deviation {worst:.4f} exceeds {DEVIATION_LIMIT}")
        return problems, float(worst), {"max_g21_dev": max(report.deviation_g21)}


WORKLOADS = {cls.name: cls for cls in (Spectra, Probe, Crosscheck)}
