"""Schmidt decomposition and entanglement entropy of biphoton amplitudes.

The Schmidt weights are the squared singular values of the amplitude matrix
normalized to sum 1, so any nonzero scale gives the normalized state's
spectrum and the grid measure drops out.
"""

from dataclasses import dataclass

import numpy as np

from .state import BiphotonAmplitude

# Coefficients below this fraction of the largest are dropped before the
# entropy sum (0*ln 0 regularization at machine scale).
_COEFF_CUTOFF = 1e-12


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
    """Scale the amplitude so sum(|F|^2) * measure = 1."""
    total = float(np.sum(np.abs(state.amplitude) ** 2)) * state.grid.measure
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
    """Schmidt spectrum, sum(lambda_j^2) = 1, of a state of any nonzero scale, by SVD."""
    return _spectrum(np.linalg.svd(state.amplitude, compute_uv=False))


def entropy_of(state: BiphotonAmplitude) -> float:
    """Entropy in nats of a state of any nonzero scale."""
    return schmidt_decompose(state).entropy


def entropy_of_samples(
    signal_axis: np.ndarray, idler_axis: np.ndarray, amplitude: np.ndarray
) -> float:
    """Entropy of an amplitude sampled on possibly non-uniform frequency axes.

    Each axis, in rad/fs, must be strictly monotone in either direction and
    gives trapezoid quadrature weights.  The amplitude is scaled by the power
    of two that puts its largest re/im part in [0.5, 1), and the weights by
    their largest, so no product over- or underflows.  Intended for ingested
    (measured) maps.
    """
    amp = np.ascontiguousarray(amplitude, dtype=complex if np.iscomplexobj(amplitude) else float)
    ws, wi = (np.sqrt(_trapezoid_weights(axis)) for axis in (signal_axis, idler_axis))
    if amp.shape != (ws.size, wi.size):
        raise ValueError("amplitude shape does not match the axes")
    parts = amp.view(float)  # the real view: np.ldexp takes no complex values
    weighted = np.ldexp(parts, -np.frexp(np.abs(parts).max())[1]).view(amp.dtype)
    weighted *= ws[:, None]  # in place: a weight matrix would raise the peak memory
    weighted *= wi
    return _spectrum(np.linalg.svd(weighted, compute_uv=False)).entropy


def _trapezoid_weights(axis) -> np.ndarray:
    """|Trapezoid weights| of a strictly monotone axis, over their largest."""
    steps = np.diff(np.asarray(axis, dtype=float))
    if steps.size == 0 or not (np.all(steps > 0.0) or np.all(steps < 0.0)):
        raise ValueError("axes must be strictly monotone, with at least 2 points")
    w = np.abs(np.append(steps, 0.0) + np.insert(steps, 0, 0.0))
    return w / w.max()
