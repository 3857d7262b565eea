"""Amplitude damping of bosonic states on truncated Fock spaces.

Thermal (chaotic) states, their thermal-vacuum purifications on a doubled
mode space, the amplitude-damping channel in Kraus and Lindblad form, and
the closed-form cooling law tau -> tau' that damping induces on thermal
states.
"""

from .channel import IntegrationError, apply_kraus, kraus_operators, lindblad_integrate
from .fock import (
    SYSTEM,
    TILDE,
    DensityMatrix,
    LayoutError,
    ModeLayout,
    StateError,
    annihilation,
    creation,
    default_cutoff,
    expectation,
    mean_occupation,
    number,
    partial_trace,
    purity,
    trace,
    trace_distance,
)
from .states import (
    ThermoParams,
    TruncationError,
    chaotic_state,
    evolved_two_mode_state,
    tfd_expectation_identity,
    thermal_vacuum,
    thermo_squeeze_operator,
    truncation_cutoff,
)
from .thermo import (
    CoolingCurveError,
    CoolingPoint,
    GeometricFit,
    NotChaoticError,
    cooling_curve,
    effective_temperature,
    fit_geometric,
    nbar_from_tau,
    tau_after,
    tau_from_nbar,
    tau_from_theta,
    theta_from_tau,
    theta_prime,
)

__version__ = "0.1.0"
