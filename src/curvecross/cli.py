"""Command-line interface.

Subcommands: absorption | raman | validate | greens-probe.  Spectra jobs
write coupled and uncoupled two-column CSV tables plus a metadata sidecar
whose config echo reproduces the run when fed back through --config.

Exit codes: 0 success, 1 validation failure, 2 config error (including a
run too large to allocate), 3 numerical failure (a NumericsError,
including a grid that cannot carry the scan).

The parser is built once per process (build_parser is cached): main may
run many jobs in one process, and each parse_args call returns a fresh
namespace, so no job's options reach the next.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import __version__
from .config import OVERRIDES, RunConfig, apply_overrides, load_config
from .errors import ConfigError, NumericsError
from .spectra import absorption_spectra, coupling_diagonals, raman_profiles

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICS = 3


def _write_csv(path, header, columns):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(header + "\n")
        row = ",".join(["{:.17g}"] * len(columns)) + "\n"
        for values in zip(*columns):
            handle.write(row.format(*values))


def _write_sidecar(path, config, command):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("[meta]\n")
        handle.write(f"version = {__version__}\n")
        handle.write(f"command = {command}\n")
        handle.write("\n")
        handle.write(config.echo_lines())
        handle.write("\n")


def _resolve_config(args):
    config = load_config(args.config) if args.config else RunConfig().validate()
    return apply_overrides(config, **{flag: getattr(args, flag, None) for flag in OVERRIDES})


def _output_dir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc.strerror}") from None
    return path


def _write_spectra(out, kind, spectra, config):
    """The coupled and uncoupled CSV tables of one job and its sidecar."""
    for spec, label in zip(spectra, ("coupled", "uncoupled")):
        path = os.path.join(out, f"{kind}_{label}.csv")
        _write_csv(path, "omega_cm1,intensity", (spec.omega, spec.intensity))
        print(f"wrote {path} ({spec.omega.size} rows)")
    _write_sidecar(os.path.join(out, f"{kind}.meta.txt"), config, kind)


def _run_spectra(args):
    """The absorption or raman job: coupled and uncoupled tables of one scan."""
    config = _resolve_config(args)
    model = config.to_model()
    grid = config.to_grid()
    omega = config.omega_grid()
    out = _output_dir(args.out)
    if args.command == "absorption":
        spectra = absorption_spectra(model, omega, grid)
    else:
        spectra = raman_profiles(model, config.raman_final_state, omega, grid)
    _write_spectra(out, args.command, spectra, config)
    return EXIT_OK


def _run_validate(args):
    # imported here: the suite's wavepacket check loads scipy.fft, which
    # the spectra jobs do not need
    from .validate import run_suite

    config = _resolve_config(args)
    results = run_suite(config, quick=args.quick)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_OK if not failed else EXIT_VALIDATION


def _run_greens_probe(args):
    """Dump G1(x_c, x_c; z) and G2(x_c, x_c; z) over the scan window."""
    config = _resolve_config(args)
    model = config.to_model()
    grid = config.to_grid()
    omega = config.omega_grid()
    out = _output_dir(args.out)
    g1, g2 = coupling_diagonals(model, omega, grid)
    path = os.path.join(out, "greens_probe.csv")
    _write_csv(path, "omega_cm1,g1_real,g1_imag,g2_real,g2_imag",
               (omega, g1.real, g1.imag, g2.real, g2.imag))
    _write_sidecar(os.path.join(out, "greens_probe.meta.txt"), config, "greens-probe")
    print(f"wrote {path} ({omega.size} rows)")
    return EXIT_OK


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="curvecross",
        description="Curve-crossing absorption spectra and Raman excitation profiles",
    )
    parser.add_argument("--version", action="version", version=f"curvecross {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, runner, doc in (
        ("absorption", _run_spectra, "absorption spectrum scan, coupled and uncoupled"),
        ("raman", _run_spectra, "Raman excitation profile scan, coupled and uncoupled"),
        ("validate", _run_validate, "run the physics invariant suite"),
        ("greens-probe", _run_greens_probe, "dump G(x_c, x_c; z) over the scan window"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--k0", type=float, help="coupling strength override, erg*angstrom")
        p.add_argument("--gamma", type=float, help="damping override, cm^-1")
        p.add_argument("--displacement", type=float,
                       help="allowed-curve displacement override, angstrom")
        p.add_argument("--out", default=".", help="output directory")
        p.set_defaults(runner=runner)
        if name == "raman":
            p.add_argument("--nf", type=int, help="Raman final vibrational state (default 1)")
        if name == "validate":
            p.add_argument("--quick", action="store_true", help="fast subset for CI")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.runner(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        config = _resolve_config(args)
        n_omega = (config.omega_max_cm1 - config.omega_min_cm1) / config.omega_step_cm1 + 1
        print(f"config error: cannot allocate a run of {config.grid_points} grid points and "
              f"{n_omega:.3g} photon energies", file=sys.stderr)
        return EXIT_CONFIG
    except NumericsError as exc:
        # a config that passed validation but broke the numerics (grid not
        # covering or not resolving the scan, degenerate solutions, ...)
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
