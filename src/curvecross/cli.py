"""Command-line interface.

Subcommands: absorption | raman | validate | greens-probe.  Spectra jobs
write coupled and uncoupled two-column CSV tables plus a metadata sidecar
whose config echo reproduces the run when fed back through --config.

Exit codes: 0 success, 1 validation failure, 2 config error, 3 numerical
failure (a NumericsError, including a grid that cannot carry the scan).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .config import RunConfig, apply_overrides, load_config
from .errors import ConfigError, NumericsError
from .spectra import absorption_spectra, raman_profiles, scan_resolvents
from .validate import run_suite

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICS = 3


def _write_csv(path, omega, intensity):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("omega_cm1,intensity\n")
        for w, i in zip(omega, intensity):
            handle.write(f"{w:.17g},{i:.17g}\n")


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
    return apply_overrides(
        config,
        k0=args.k0,
        gamma=args.gamma,
        nf=getattr(args, "nf", None),
        displacement=args.displacement,
    )


def _write_spectra(out, kind, spectra, config):
    """The coupled and uncoupled CSV tables of one job and its sidecar."""
    for spec, label in zip(spectra, ("coupled", "uncoupled")):
        path = os.path.join(out, f"{kind}_{label}.csv")
        _write_csv(path, spec.omega, spec.intensity)
        print(f"wrote {path} ({spec.omega.size} rows)")
    _write_sidecar(os.path.join(out, f"{kind}.meta.txt"), config, kind)


def _run_absorption(args):
    config = _resolve_config(args)
    model = config.to_model()
    grid = config.to_grid()
    omega = config.omega_grid()
    os.makedirs(args.out, exist_ok=True)
    _write_spectra(args.out, "absorption", absorption_spectra(model, omega, grid), config)
    return EXIT_OK


def _run_raman(args):
    config = _resolve_config(args)
    model = config.to_model()
    grid = config.to_grid()
    omega = config.omega_grid()
    n_f = config.raman_final_state
    os.makedirs(args.out, exist_ok=True)
    _write_spectra(args.out, "raman", raman_profiles(model, n_f, omega, grid), config)
    return EXIT_OK


def _run_validate(args):
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
    x_c = model.coupling.location
    out = args.out
    os.makedirs(out, exist_ok=True)
    rows = np.array(
        [(ev1.point(x_c, x_c), ev2.point(x_c, x_c))
         for ev1, ev2 in scan_resolvents(model, omega, grid)]
    ).T
    path = os.path.join(out, "greens_probe.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("omega_cm1,g1_real,g1_imag,g2_real,g2_imag\n")
        for k, w in enumerate(omega):
            handle.write(
                f"{w:.17g},{rows[0][k].real:.17g},{rows[0][k].imag:.17g},"
                f"{rows[1][k].real:.17g},{rows[1][k].imag:.17g}\n"
            )
    _write_sidecar(os.path.join(out, "greens_probe.meta.txt"), config, "greens-probe")
    print(f"wrote {path} ({omega.size} rows)")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="curvecross",
        description="Curve-crossing absorption spectra and Raman excitation profiles",
    )
    parser.add_argument("--version", action="version", version=f"curvecross {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, runner, doc in (
        ("absorption", _run_absorption, "absorption spectrum scan, coupled and uncoupled"),
        ("raman", _run_raman, "Raman excitation profile scan, coupled and uncoupled"),
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
    except NumericsError as exc:
        # a config that passed validation but broke the numerics (grid not
        # covering or not resolving the scan, degenerate solutions, ...)
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
