"""Self-test of the benchmark harness at reduced size.

Checks metric names and units against BENCHMARK.json, the failure
accounting and the span arithmetic.  The reduced workloads exist only
here; reported numbers always come from perfbench/run.py.

    python3 -m pytest -q perfbench/test_harness.py
"""

import argparse
import io
import json
import math
import os
import signal
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import harness  # noqa: E402
import run  # noqa: E402
from workloads import Crosscheck, Probe, Spectra  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def small(name, workdir):
    """Reduced-size workload: fewer energies or a coarser wavepacket."""
    if name == "spectra":
        return Spectra(workdir, n_energies=4)
    if name == "probe":
        return Probe(workdir)
    return Crosscheck(workdir, wp_points=2048, dt_fraction=1.0)


def report(workload, trace, seconds=0.0):
    args = argparse.Namespace(workload=workload.name, seed=5, seconds=seconds, trace=trace)
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = run.measure_and_report(args, 1, workload, ([0.5], [0.5]))
    assert code == 0
    lines = buffer.getvalue().strip().splitlines()
    assert "record" in json.loads(lines[-2])
    return json.loads(lines[-1])


@pytest.mark.parametrize("name", ["spectra", "probe", "crosscheck"])
@pytest.mark.parametrize("trace", [0, 1])
def test_metric_names_and_units(tmp_path, name, trace):
    workload = small(name, str(tmp_path))
    result = report(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for name_, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name_
        if not trace:
            assert metric["value"] > 0.0, name_


def _corrupt_first_coupled_row(directory):
    path = os.path.join(directory, "absorption_coupled.csv")
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    omega, value = lines[1].split(",")
    lines[1] = f"{omega},{float(value) * (1.0 + 1e-4)!r}"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def test_clean_spectra_op_passes(tmp_path):
    workload = small("spectra", str(tmp_path))
    workload.setup()
    out = harness.measure(workload, np.random.default_rng(1), 0.0)
    assert (out.attempted, out.failed) == (1, 0), out.errors


def test_one_corrupted_spectra_output_is_counted(tmp_path):
    workload = small("spectra", str(tmp_path))
    workload.setup()
    clean_run = workload.run

    def corrupted(inputs):
        codes = clean_run(inputs)
        _corrupt_first_coupled_row(inputs["dir"])
        return codes

    workload.run = corrupted
    out = harness.measure(workload, np.random.default_rng(1), 0.0)
    assert (out.attempted, out.failed) == (1, 1)
    assert "absorption_coupled differs from the reference" in out.errors[0]


def test_one_corrupted_probe_element_is_counted(tmp_path):
    workload = small("probe", str(tmp_path))
    workload.setup()
    clean_run = workload.run

    def corrupted(omega):
        blocks, g00, g10 = clean_run(omega)
        bad = type(g10)(g10.value, g10.direct * (1.0 + 1e-4), g10.crossing_correction,
                        g10.denominator)
        return blocks, g00, bad

    workload.run = corrupted
    out = harness.measure(workload, np.random.default_rng(1), 0.0)
    assert (out.attempted, out.failed) == (1, 1)
    assert "oracle" in out.errors[0]


def test_exception_counts_as_failed_operation(tmp_path):
    workload = small("probe", str(tmp_path))
    workload.setup()

    def broken(omega):
        raise FloatingPointError("injected")

    workload.run = broken
    out = harness.measure(workload, np.random.default_rng(1), 0.0)
    assert (out.attempted, out.failed) == (1, 1)
    assert "injected" in out.errors[0]


def test_tail_has_ten_samples_beyond():
    values = list(range(1, 101))
    value, percentile, beyond = harness.tail(values)
    assert beyond == 10 and value == 90 and percentile == 90.0
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert harness.tail(list(range(20))) == (19, 100.0, 0)


def test_self_time_subtracts_children():
    spans = [
        ["op", 0, None, 0.0, 10.0, False, None],
        ["spectra.absorption_spectrum", 0, 0, 1.0, 9.0, False, None],
        ["resolvent.build_resolvent_batch", 0, 1, 2.0, 8.0, False,
         {"nz": 2, "n": 11, "surface": "HarmonicCurve", "energies": [1.0, 2.0]}],
    ]
    m = harness.layer_metrics(spans, [], 0.0)
    assert m["resolvent.self_frac"] == pytest.approx(0.6)
    assert m["spectra.self_frac"] == pytest.approx(0.2)
    assert m["bench.self_frac"] == pytest.approx(0.2)
    assert m["resolvent.rk4_node_steps"] == 2 * 2 * 10
    assert m["resolvent.build.ms_per_z"] == pytest.approx(3000.0)
    assert m["resolvent.sweeps_per_energy"] == 1.0


def test_recorded_oracle_matches_spectral_sum(tmp_path):
    from curvecross.resolvent import HarmonicSpectralSum

    workload = small("probe", str(tmp_path))
    workload.setup()
    m, chi = workload.model, workload.chi
    for omega in (9600.0, 11500.0, 13400.0):
        live = HarmonicSpectralSum(m.allowed, m.resolvent_argument(omega), 200, workload.grid)
        for n_f in (0, 1):
            expected = live.matrix_element(chi[n_f], chi[0])
            assert workload.oracle.element(omega, n_f) == pytest.approx(expected, rel=1e-14)


def test_crosscheck_runs_a_fixed_number_of_operations(tmp_path):
    workload = small("crosscheck", str(tmp_path))
    workload.setup()
    # At reduced size the deviations exceed the limit; only the count matters.
    assert harness.measure(workload, np.random.default_rng(1), 1e6).attempted == Crosscheck.OPS


def test_walls_are_scaled_to_the_nominal_gauge_time(tmp_path):
    nominal = harness.GAUGE_NOMINAL_MS
    out = harness.Outcome()
    # two long operations, the second on a host at a third of the speed,
    # and a short one that borrows the samples around it
    out.walls = [10.0, 30.0, 0.1]
    out.spans = [(0.0, 10.0), (10.0, 40.0), (40.0, 40.1)]
    out.gauge = harness.Gauge(active=False)
    out.gauge.at = [0.05 + 0.1 * k for k in range(400)]
    out.gauge.samples = [nominal] * 100 + [3.0 * nominal] * 300
    assert out.scaled_walls() == pytest.approx([10.0, 10.0, 0.1 / 3.0])

    workload = small("probe", str(tmp_path))
    workload.setup()
    run_ = harness.measure(workload, np.random.default_rng(1), 0.0)
    # a probe request takes several gauge intervals
    assert run_.attempted == 1 and len(run_.gauge.samples) >= 2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
