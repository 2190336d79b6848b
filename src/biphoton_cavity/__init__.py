"""Frequency-entangled biphoton pairs through optical microcavities.

Builds joint spectral amplitudes from pump, phase-matching and detection
filters, propagates the idler arm through empty or strongly-coupled
microcavity transfer functions, and quantifies the resulting Schmidt
spectra and entanglement entropies.
"""

from .cavity import CAVITY_KINDS, CavityModel, TransferCurve, transfer_for
from .config import ConfigError, SimConfig, load_config, parse_config_text
from .dataio import ingest_measured_jsi
from .grid import (
    C_NM_PER_FS,
    FrequencyGrid,
    bandwidth_nm_to_rad_fs,
    build_grid,
    omega_from_wavelength,
    wavelength_from_omega,
)
from .schmidt import SchmidtSpectrum, entropy_of, normalize, schmidt_decompose
from .state import (
    BiphotonAmplitude,
    FilterSpec,
    PhaseMatchingSpec,
    PumpSpec,
    apply_idler_transfer,
    compose_input_state,
    detection_filter_profile,
    phase_matching_envelope,
    pump_envelope,
)
from .sweep import SweepPlan, SweepResult, run_sweep

__version__ = "0.1.0"

__all__ = [
    "BiphotonAmplitude",
    "C_NM_PER_FS",
    "CAVITY_KINDS",
    "CavityModel",
    "ConfigError",
    "FilterSpec",
    "FrequencyGrid",
    "PhaseMatchingSpec",
    "PumpSpec",
    "SchmidtSpectrum",
    "SimConfig",
    "SweepPlan",
    "SweepResult",
    "TransferCurve",
    "apply_idler_transfer",
    "bandwidth_nm_to_rad_fs",
    "build_grid",
    "compose_input_state",
    "detection_filter_profile",
    "entropy_of",
    "ingest_measured_jsi",
    "load_config",
    "normalize",
    "omega_from_wavelength",
    "parse_config_text",
    "phase_matching_envelope",
    "pump_envelope",
    "run_sweep",
    "schmidt_decompose",
    "transfer_for",
    "wavelength_from_omega",
]
