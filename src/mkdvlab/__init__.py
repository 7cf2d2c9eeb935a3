"""Pseudospectral simulation and verification lab for the fifth-order mKdV
equation on the 2*pi torus: conserved Hamiltonians, gauge renormalization,
resonance combinatorics, short-time weighted norms, and the explicit
high-frequency growth counterexample."""

__version__ = "0.1.0"

from .equations import (
    EquationParams,
    RenormalizedTerms,
    check_constraints,
    derive_gauge_params,
    dispersion_mu,
    linear_symbol,
    rhs,
)
from .integrate import StepControl, Trajectory, evolve
from .invariants import (
    HamiltonianReport,
    drift_report,
    es_energy,
    modified_energy_ek,
)
from .resonance import (
    enumerate_n3,
    enumerate_n5,
    phi_cubic,
    resonance_g,
)
from .spectral import (
    GridSpec,
    SpectralField,
    chi,
    psi,
    sobolev_norm,
)
from .transforms import gauge_forward, miura

__all__ = [
    "EquationParams",
    "GridSpec",
    "HamiltonianReport",
    "RenormalizedTerms",
    "SpectralField",
    "StepControl",
    "Trajectory",
    "check_constraints",
    "chi",
    "derive_gauge_params",
    "dispersion_mu",
    "drift_report",
    "enumerate_n3",
    "enumerate_n5",
    "es_energy",
    "evolve",
    "gauge_forward",
    "linear_symbol",
    "miura",
    "modified_energy_ek",
    "phi_cubic",
    "psi",
    "resonance_g",
    "rhs",
    "sobolev_norm",
    "__version__",
]
