"""Schmidt decomposition and entanglement entropy of biphoton amplitudes.

The Schmidt weights are the squared singular values of the amplitude matrix
normalized to sum 1, so any nonzero scale gives the normalized state's
spectrum and the grid measure drops out.  The independent route, the reduced
density matrix F F^dagger divided by its trace, needs no normalized state either.
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


def _entropy_from_probabilities(p: np.ndarray) -> float:
    p = p[p > _COEFF_CUTOFF**2 * p.max()]
    return 0.0 - float(np.sum(p * np.log(p)))  # +0.0, not -0.0, for a separable state


def _spectrum(singular: np.ndarray) -> SchmidtSpectrum:
    """Schmidt spectrum from the singular values of an amplitude of any nonzero scale."""
    largest = singular.max()
    if largest == 0.0:
        raise ValueError("cannot compute entropy of an all-zero amplitude")
    p = (singular / largest) ** 2  # scaled first: s**2 over- or underflows far from 1
    weights = p / p.sum()
    return SchmidtSpectrum(np.sqrt(weights), _entropy_from_probabilities(weights),
                           float(1.0 / np.sum(weights**2)))


def schmidt_decompose(state: BiphotonAmplitude) -> SchmidtSpectrum:
    """Schmidt spectrum, sum(lambda_j^2) = 1, of a state of any nonzero scale, by SVD."""
    return _spectrum(np.linalg.svd(state.amplitude, compute_uv=False))


def entropy_oracle(state: BiphotonAmplitude) -> float:
    """Entropy via the reduced density matrix, independent of the SVD path.

    Builds rho_s = F F^dagger from F over its largest modulus, so that no scale
    over- or underflows, divides it by its trace and returns -sum(p ln p) of
    its eigenvalues.  Must agree with schmidt_decompose to 1e-9.
    """
    largest = np.abs(state.amplitude).max()
    if largest == 0.0:
        raise ValueError("cannot compute entropy of an all-zero amplitude")
    scaled = state.amplitude / largest
    rho = scaled @ scaled.conj().T
    evals = np.linalg.eigvalsh(rho / np.trace(rho).real)
    return _entropy_from_probabilities(evals[evals > 0.0])


def entropy_of(state: BiphotonAmplitude) -> float:
    """Entropy in nats of a state of any nonzero scale."""
    return schmidt_decompose(state).entropy


def entropy_of_samples(
    signal_axis: np.ndarray, idler_axis: np.ndarray, amplitude: np.ndarray
) -> float:
    """Entropy of an amplitude sampled on possibly non-uniform frequency axes.

    Uses trapezoid quadrature weights per axis; axes must be strictly
    increasing, in rad/fs.  Intended for ingested (measured) maps.
    """
    ws = np.asarray(signal_axis, dtype=float)
    wi = np.asarray(idler_axis, dtype=float)
    amp = np.asarray(amplitude, dtype=complex if np.iscomplexobj(amplitude) else float)
    if np.any(np.diff(ws) <= 0.0) or np.any(np.diff(wi) <= 0.0):
        raise ValueError("axes must be strictly increasing")
    if amp.shape != (ws.size, wi.size):
        raise ValueError("amplitude shape does not match the axes")
    weighted = amp * np.sqrt(np.outer(_trapezoid_weights(ws), _trapezoid_weights(wi)))
    return _spectrum(np.linalg.svd(weighted, compute_uv=False)).entropy


def _trapezoid_weights(axis: np.ndarray) -> np.ndarray:
    w = np.empty_like(axis)
    w[1:-1] = (axis[2:] - axis[:-2]) / 2.0
    w[0] = (axis[1] - axis[0]) / 2.0
    w[-1] = (axis[-1] - axis[-2]) / 2.0
    return w
