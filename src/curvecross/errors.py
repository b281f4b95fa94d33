"""Exception and warning types shared across the package.

NumericsError subclasses signal a failed numerical construction (the CLI
maps them to exit code 3); ValueError subclasses signal rejected input.
GridError is both: a grid that cannot carry the requested scan.
"""


class NumericsError(Exception):
    """A numerical construction failed in a way that invalidates results."""


class DegenerateWronskianError(NumericsError):
    """The Wronskian of the two boundary solutions drifted past the limit:
    the sweeps overflowed (the drift is NaN) or the solutions became
    linearly dependent on the grid."""


class ResonanceSingularityError(NumericsError):
    """The coupling denominator vanished; signals a broken resolvent build."""


class StepSizeError(NumericsError):
    """Wavepacket norm grew during propagation; the time step is too large."""


class GridError(NumericsError, ValueError):
    """The spatial grid cannot carry the resolvent at the requested energies:
    it does not cover the classically relevant region or is too coarse."""


class UnitError(ValueError):
    """Unknown unit tag or dimensionally incompatible conversion."""


class UnsupportedCurveError(ValueError):
    """Operation requested on a potential curve variant it does not support."""


class NoCrossingError(ValueError):
    """No sign change of the potential difference on the given bracket."""


class GridMismatchError(ValueError):
    """Two spectra (or grids) that must share a grid do not."""


class ConfigError(ValueError):
    """Invalid run configuration; carries a line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class MultipleCrossingsWarning(UserWarning):
    """More than one root in the crossing bracket; nearest to midpoint used."""


class TailTruncationWarning(UserWarning):
    """A half-Fourier integral was truncated before the damping decayed."""
