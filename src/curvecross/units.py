"""The internal hbar = 1 unit system and the two factors into it.

Internal units are the config's units: energy is numerically the
wavenumber in cm^-1 (the erg value divided by hc) and length is the
angstrom, so those values enter the model as they are.  The mass unit is
fixed by requiring hbar = 1; energy and angular frequency then share one
scale, and the kinetic term reads p^2/2m with no extra constants anywhere
in the physics modules.  Only a mass in amu (AMU) and a coupling strength
in erg*angstrom (ERG_ANGSTROM) take a factor.

Conversion constants are CODATA values, fixed here to 9 significant
digits; all physics tolerances in this package are far looser than the
constant uncertainty.
"""

# CODATA constants (cgs).
HBAR_ERG_S = 1.054571817e-27
AMU_G = 1.66053907e-24
HC_ERG_CM = 1.98644586e-16

# One internal energy unit in erg (the energy of a 1 cm^-1 photon).
ENERGY_UNIT_ERG = HC_ERG_CM * 1.0
# One internal length unit in cm.
LENGTH_UNIT_CM = 1.0e-8
# Mass unit forced by hbar = 1:  E * m * L^2 = hbar^2.
MASS_UNIT_G = HBAR_ERG_S**2 / (ENERGY_UNIT_ERG * LENGTH_UNIT_CM**2)
# Time unit forced by hbar = 1 (seconds per internal time unit).
TIME_UNIT_S = HBAR_ERG_S / ENERGY_UNIT_ERG

# Internal time units per femtosecond, for wavepacket step sizes.
FEMTOSECOND = 1.0e-15 / TIME_UNIT_S

# Internal mass units per amu, and internal coupling-strength units
# (energy x length) per erg*angstrom.
AMU = AMU_G / MASS_UNIT_G
ERG_ANGSTROM = 1.0 / ENERGY_UNIT_ERG
