import os
import subprocess
import sys

import numpy as np
import pytest

import curvecross
from curvecross import cli
from curvecross.cli import main
from curvecross.config import load_config
from curvecross.resolvent import resolvent_rows

NARROW = """\
[scan]
omega_min_cm1 = 10500
omega_max_cm1 = 11500
omega_step_cm1 = 20
"""


def read_csv(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return data[:, 0], data[:, 1]


def test_absorption_default_window(tmp_path):
    out = tmp_path / "run"
    assert main(["absorption", "--out", str(out)]) == 0
    for name in ("absorption_coupled.csv", "absorption_uncoupled.csv"):
        path = out / name
        assert path.exists()
        header = path.read_text().splitlines()[0]
        assert header == "omega_cm1,intensity"
        omega, intensity = read_csv(path)
        assert omega.size == 401
        assert omega[0] == 9500.0 and omega[-1] == 13500.0
        assert np.all(intensity > 0)
    assert (out / "absorption.meta.txt").exists()


def test_zero_coupling_files_identical(tmp_path):
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text(NARROW)
    out = tmp_path / "run"
    assert main(["absorption", "--config", str(cfg), "--k0", "0", "--out", str(out)]) == 0
    coupled = (out / "absorption_coupled.csv").read_bytes()
    uncoupled = (out / "absorption_uncoupled.csv").read_bytes()
    assert coupled == uncoupled


def test_sharp_line_peaks(tmp_path):
    out = tmp_path / "run"
    assert main(["absorption", "--gamma", "20", "--k0", "0", "--out", str(out)]) == 0
    omega, intensity = read_csv(out / "absorption_uncoupled.csv")
    peaks = np.flatnonzero(
        (intensity[1:-1] > intensity[:-2]) & (intensity[1:-1] > intensity[2:])
    ) + 1
    for expected in (10700.0, 11100.0, 11500.0):
        nearest = peaks[np.argmin(np.abs(omega[peaks] - expected))]
        assert abs(omega[nearest] - expected) <= 10.0


def test_raman_zero_displacement(tmp_path):
    out = tmp_path / "run"
    assert main(
        ["raman", "--nf", "1", "--displacement", "0", "--out", str(out)]
    ) == 0
    _, uncoupled = read_csv(out / "raman_uncoupled.csv")
    assert np.max(uncoupled) < 1e-20


def test_raman_overtone_runs(tmp_path):
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text(NARROW)
    out = tmp_path / "run"
    assert main(["raman", "--nf", "2", "--config", str(cfg), "--out", str(out)]) == 0
    omega, intensity = read_csv(out / "raman_coupled.csv")
    assert omega.size == 51
    assert np.all(np.isfinite(intensity))


def test_determinism_and_sidecar_roundtrip(tmp_path):
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text(NARROW)
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert main(["raman", "--config", str(cfg), "--out", str(first)]) == 0
    assert main(["raman", "--config", str(cfg), "--out", str(second)]) == 0
    assert (first / "raman_coupled.csv").read_bytes() == (
        second / "raman_coupled.csv"
    ).read_bytes()
    # the sidecar config echo reproduces the run exactly
    third = tmp_path / "c"
    assert main(
        ["raman", "--config", str(first / "raman.meta.txt"), "--out", str(third)]
    ) == 0
    assert (first / "raman_coupled.csv").read_bytes() == (
        third / "raman_coupled.csv"
    ).read_bytes()


def test_overrides_roundtrip_through_sidecar(tmp_path):
    cfg = tmp_path / "coarse_scan.cfg"
    cfg.write_text("[scan]\nomega_min_cm1 = 10500\nomega_max_cm1 = 11500\nomega_step_cm1 = 100\n")
    for job, flags, expected in (
        ("absorption", ["--k0", "3e-15", "--gamma", "300", "--displacement", "0.08"],
         {"coupling_k0_erg_angstrom": 3e-15, "damping_cm1": 300.0,
          "allowed_displacement_angstrom": 0.08}),
        ("raman", ["--nf", "2"], {"raman_final_state": 2}),
    ):
        first, second = tmp_path / f"{job}-flags", tmp_path / f"{job}-sidecar"
        assert main([job, "--config", str(cfg), *flags, "--out", str(first)]) == 0
        sidecar = first / f"{job}.meta.txt"
        echoed = load_config(sidecar)
        assert {name: getattr(echoed, name) for name in expected} == expected
        assert main([job, "--config", str(sidecar), "--out", str(second)]) == 0
        for label in ("coupled", "uncoupled"):
            name = f"{job}_{label}.csv"
            assert (first / name).read_bytes() == (second / name).read_bytes()


def test_runs_in_one_process_share_no_state(tmp_path):
    # the parser is built once per process, and each job's options stay
    # with that job: a default raman run after a --nf 2 run writes the
    # n_f = 1 profile, and a default absorption run after a --k0 0 run the
    # same bytes as a default run in a fresh process
    assert cli.build_parser() is cli.build_parser()
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text(NARROW)
    explicit, overtone, default = (tmp_path / name for name in ("nf1", "nf2", "default"))
    assert main(["raman", "--nf", "1", "--config", str(cfg), "--out", str(explicit)]) == 0
    assert main(["raman", "--nf", "2", "--config", str(cfg), "--out", str(overtone)]) == 0
    assert main(["raman", "--config", str(cfg), "--out", str(default)]) == 0
    for name in ("raman_coupled.csv", "raman_uncoupled.csv", "raman.meta.txt"):
        assert (default / name).read_bytes() == (explicit / name).read_bytes()
    assert (overtone / "raman_coupled.csv").read_bytes() != (
        default / "raman_coupled.csv"
    ).read_bytes()
    uncoupled, after = tmp_path / "k0", tmp_path / "after"
    assert main(["absorption", "--k0", "0", "--out", str(uncoupled)]) == 0
    assert main(["absorption", "--out", str(after)]) == 0
    fresh = tmp_path / "fresh"
    src = os.path.dirname(os.path.dirname(os.path.abspath(curvecross.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    subprocess.run([sys.executable, "-m", "curvecross.cli", "absorption", "--out", str(fresh)],
                   env=env, check=True, capture_output=True)
    for name in ("absorption_coupled.csv", "absorption_uncoupled.csv", "absorption.meta.txt"):
        assert (after / name).read_bytes() == (fresh / name).read_bytes()
    assert (uncoupled / "absorption_coupled.csv").read_bytes() != (
        after / "absorption_coupled.csv"
    ).read_bytes()


def test_greens_probe(tmp_path):
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text(NARROW)
    out = tmp_path / "run"
    assert main(["greens-probe", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "greens_probe.csv").read_text().splitlines()
    assert lines[0] == "omega_cm1,g1_real,g1_imag,g2_real,g2_imag"
    assert len(lines) == 52
    # retarded sign convention: Im G(x_c, x_c) < 0
    g1_imag = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(v < 0 for v in g1_imag)


def test_greens_probe_matches_full_grid_evaluators(tmp_path):
    # the probe reads G(x_c, x_c) through one-sided sweeps on each surface's
    # own window; rows on the whole configured grid agree with it
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text(NARROW)
    assert main(["greens-probe", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    table = np.loadtxt(tmp_path / "greens_probe.csv", delimiter=",", skiprows=1)
    config = load_config(str(cfg))
    model, grid = config.to_model(), config.to_grid()
    assert np.array_equal(table[:, 0], config.omega_grid())
    zs = model.resolvent_argument(table[:, 0])
    x_c = model.coupling.location
    for column, curve in ((1, model.allowed), (3, model.forbidden)):
        probe = table[:, column] + 1j * table[:, column + 1]
        full = resolvent_rows(curve, zs, grid).point(x_c, x_c)
        assert np.max(np.abs(probe - full) / np.abs(full)) < 1e-12


def test_invalid_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[model]\nmass_amu = -1\n")
    assert main(["validate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "mass_amu" in err


def test_crossing_outside_grid_exits_2(tmp_path, capsys):
    cfg = tmp_path / "far.cfg"
    cfg.write_text("[model]\ncrossing_position_angstrom = 2.0\n")
    assert main(["greens-probe", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "crossing_position_angstrom" in err


def test_raman_final_state_above_table_exits_2(tmp_path, capsys):
    assert main(["raman", "--nf", "250", "--out", str(tmp_path / "run")]) == 2
    assert "raman_final_state" in capsys.readouterr().err
    cfg = tmp_path / "high.cfg"
    cfg.write_text("# final state beyond the eigenstate table\n[raman]\nraman_final_state = 201\n")
    assert main(["raman", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "raman_final_state" in err


@pytest.mark.parametrize("job", ["absorption", "raman", "greens-probe"])
def test_unusable_out_exits_2(tmp_path, capsys, job):
    blocker = tmp_path / "taken"
    blocker.write_text("a file, not a directory\n")
    for out in (blocker, blocker / "run"):
        assert main([job, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(out) in err


def test_missing_config_exits_2(tmp_path):
    assert main(["absorption", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_unreadable_config_exits_2(tmp_path, capsys):
    assert main(["absorption", "--config", str(tmp_path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(tmp_path) in err


def test_non_utf8_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"[model]\nmass_amu = 35.4 \xff\n")
    assert main(["absorption", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "not UTF-8 text" in err


@pytest.mark.parametrize("job", ["absorption", "greens-probe"])
def test_unallocatable_scan_exits_2(tmp_path, capsys, job):
    # a 1e-12 cm^-1 step asks for 4e15 photon energies, 28 PiB of float64,
    # more than any address space holds: the allocation fails at once
    cfg = tmp_path / "dense.cfg"
    cfg.write_text("[scan]\nomega_step_cm1 = 1e-12\n")
    assert main([job, "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "4096 grid points and 4e+15 photon energies" in err


def test_non_finite_override_exits_2(tmp_path, capsys):
    assert main(["absorption", "--k0", "nan", "--out", str(tmp_path / "run")]) == 2
    assert "coupling_k0_erg_angstrom: must be finite" in capsys.readouterr().err


def test_numerical_failure_exits_3(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("[grid]\ngrid_x_max_angstrom = 0.15\n" + NARROW)
    out = tmp_path / "run"
    assert main(["absorption", "--config", str(cfg), "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_coarse_grid_exits_3(tmp_path, capsys):
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text("[grid]\ngrid_points = 256\n" + NARROW)
    assert main(["absorption", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "k_max*dx" in err
    cfg.write_text("[grid]\ngrid_points = 512\n" + NARROW)
    assert main(["absorption", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0


def test_final_state_reaching_grid_edges_exits_3(tmp_path, capsys):
    cfg = tmp_path / "short.cfg"
    cfg.write_text(
        "[grid]\ngrid_x_min_angstrom = -0.4\ngrid_x_max_angstrom = 0.6\n"
        "[scan]\nomega_min_cm1 = 10500\nomega_max_cm1 = 12500\nomega_step_cm1 = 100\n"
    )
    out = tmp_path / "run"
    assert main(["raman", "--nf", "60", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "n = 60" in err
    assert main(["raman", "--nf", "1", "--config", str(cfg), "--out", str(out)]) == 0


def test_programming_error_is_not_a_numerical_failure(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("a bug, not a numerical failure")

    monkeypatch.setattr(cli, "absorption_spectra", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["absorption", "--out", str(tmp_path / "run")])


def test_validate_quick_passes(capsys):
    assert main(["validate", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


def test_validate_quick_passes_without_coupling(capsys):
    # K0 = 0 leaves no scale for the K0-power fit, which then takes the
    # default K0
    assert main(["validate", "--quick", "--k0", "0"]) == 0
    out = capsys.readouterr().out
    assert "PASS  K0-scaling exponents" in out
    assert "FAIL" not in out


def scipy_modules(code):
    """The scipy.* modules in sys.modules after code runs in a fresh
    interpreter that imports curvecross from this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(curvecross.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    script = code + "\nimport sys\nprint(*(m for m in sys.modules if m.startswith('scipy.')))"
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True)
    return set(out.stdout.splitlines()[-1].split())


def test_spectra_path_loads_no_scipy_beyond_linalg(tmp_path):
    # importing the CLI and running an absorption job load only what
    # scipy.linalg loads on its own: no scipy.optimize, integrate, fft,
    # sparse or spatial
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text(NARROW)
    budget = scipy_modules("import scipy.linalg")
    assert "scipy.linalg" in budget
    for code in ("import curvecross.cli",
                 f"from curvecross.cli import main\n"
                 f"assert main(['absorption', '--config', {str(cfg)!r}, "
                 f"'--out', {str(tmp_path / 'run')!r}]) == 0"):
        loaded = scipy_modules(code)
        assert loaded <= budget, sorted(loaded - budget)
