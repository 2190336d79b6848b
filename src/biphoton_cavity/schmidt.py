"""Schmidt decomposition and entanglement entropy of biphoton amplitudes.

The Schmidt weights are the squared singular values of the amplitude times the
square roots of each axis's quadrature weights, normalized to sum 1: so any
nonzero scale, of the amplitude or of one axis's weights, drops out.
"""

from dataclasses import dataclass

import numpy as np

from .state import BiphotonAmplitude

# Coefficients below this fraction of the largest are dropped before the
# entropy sum (0*ln 0 regularization at machine scale).
_COEFF_CUTOFF = 1e-12
# Largest re/im parts of an amplitude whose SVD neither over- nor underflows:
# on equal weights, one in this window is decomposed as it is, without a copy.
_UNSCALED = (2.0**-500, 2.0**500)


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Schmidt coefficients (descending), entropy in nats, Schmidt number."""

    coefficients: np.ndarray
    entropy: float
    effective_modes: float

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=float, order="C")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)


def normalize(state: BiphotonAmplitude) -> BiphotonAmplitude:
    """Scale the amplitude to unit quadrature mass: signal_weights @ |F|**2 @ idler_weights = 1."""
    grid = state.grid
    total = float(grid.signal_weights @ np.abs(state.amplitude) ** 2 @ grid.idler_weights)
    if total == 0.0:
        raise ValueError("cannot normalize an all-zero amplitude")
    return BiphotonAmplitude(grid=state.grid, amplitude=state.amplitude / np.sqrt(total))


def _spectrum(singular: np.ndarray) -> SchmidtSpectrum:
    """Schmidt spectrum from the singular values of an amplitude of any nonzero scale."""
    largest = singular.max()
    if largest == 0.0:
        raise ValueError("cannot compute entropy of an all-zero amplitude")
    p = (singular / largest) ** 2  # scaled first: s**2 over- or underflows far from 1
    weights = p / p.sum()
    kept = weights[weights > _COEFF_CUTOFF**2 * weights.max()]
    entropy = 0.0 - float(np.sum(kept * np.log(kept)))  # +0.0, not -0.0, for a separable state
    return SchmidtSpectrum(np.sqrt(weights), entropy, float(1.0 / np.sum(weights**2)))


def schmidt_decompose(state: BiphotonAmplitude) -> SchmidtSpectrum:
    """Schmidt spectrum, sum(lambda_j^2) = 1, of a state of any nonzero scale: the
    SVD of its amplitude times sqrt(w / w.max()) along each axis's weights w."""
    amplitude, ws, wi = state.amplitude, state.grid.signal_weights, state.grid.idler_weights
    parts = amplitude.view(float)  # the real view: np.ldexp takes no complex values
    largest = max(parts.max(), -parts.min())  # np.abs would add a full-size temporary
    equal = np.all(ws == ws[0]) and np.all(wi == wi[0])  # then the factors are all 1.0
    if not (equal and _UNSCALED[0] <= largest <= _UNSCALED[1]):
        # a copy with its largest re/im part in [0.5, 1): weighing it cannot under/overflow
        amplitude = np.ldexp(parts, -np.frexp(largest)[1]).view(amplitude.dtype)
        amplitude *= np.sqrt(ws / ws.max())[:, None]
        amplitude *= np.sqrt(wi / wi.max())
    return _spectrum(np.linalg.svd(amplitude, compute_uv=False))


def entropy_of(state: BiphotonAmplitude) -> float:
    """Entropy in nats of a state of any nonzero scale."""
    return schmidt_decompose(state).entropy
