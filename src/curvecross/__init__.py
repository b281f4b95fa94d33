"""Delta-coupled two-surface curve-crossing spectra.

Absorption spectra and resonance Raman excitation profiles for a model of
one dipole-allowed harmonic excited surface crossing a dipole-forbidden
dissociative surface, coupled at a single point.  The coupled Green's
function is assembled exactly from single-surface resolvents and
cross-validated by a time-domain wavepacket propagation.
"""

__version__ = "0.1.0"

from .model import (
    DEFAULT_GRID,
    DeltaCoupling,
    Grid,
    HarmonicCurve,
    MorseCurve,
    TwoStateModel,
    find_crossing,
    franck_condon_matrix,
    harmonic_eigenstates,
    huang_rhys_factor,
)
from .resolvent import (
    HarmonicSpectralSum,
    build_resolvent,
)
from .coupled import CoupledAmplitude, CoupledBlocks
from .spectra import (
    Spectrum,
    absorption_spectra,
    deviation_metric,
    raman_profiles,
)
from . import units

__all__ = [
    "DEFAULT_GRID",
    "DeltaCoupling",
    "Grid",
    "HarmonicCurve",
    "MorseCurve",
    "TwoStateModel",
    "find_crossing",
    "franck_condon_matrix",
    "harmonic_eigenstates",
    "huang_rhys_factor",
    "HarmonicSpectralSum",
    "build_resolvent",
    "CoupledAmplitude",
    "CoupledBlocks",
    "Spectrum",
    "absorption_spectra",
    "deviation_metric",
    "raman_profiles",
    "units",
]
