"""Complex idler transfer functions from input-output theory.

Three cavity kinds are supported:

* one_sided  -- all-pass: C = (g/2 - i d) / (g/2 + i d), |C| = 1
* two_sided  -- Lorentzian: C = g / (g + i d)
* dicke      -- cavity mode linearly coupled to a collective emitter mode:
                C = g / (g + i d + lam^2 / (i (w - w_e)))

with d = w - w_0 and g the external coupling rate (inverse photon
lifetime).  The dicke response carries an exact transmission zero and a pi
phase discontinuity at the emitter frequency.  A TransferCurve keeps only
the sampled C; its transmission and phase are derived from it when read.
"""

from dataclasses import dataclass

import numpy as np

CAVITY_KINDS = ("one_sided", "two_sided", "dicke")


@dataclass(frozen=True)
class CavityModel:
    """Parameters of an idler-arm microcavity.

    gamma is the external coupling rate in rad/fs (photon lifetime 1/gamma).
    lambda_c and omega_e only apply to the dicke kind; lambda_c is the
    collective (sqrt(N)-normalized) light-matter coupling.  gamma_e is an
    optional emitter-damping extension beyond the standard damping-free
    model; outputs produced with gamma_e > 0 are flagged.
    """

    kind: str
    omega_0: float
    gamma: float
    lambda_c: float = 0.0
    omega_e: float | None = None
    gamma_e: float = 0.0

    def __post_init__(self):
        if self.kind not in CAVITY_KINDS:
            raise ValueError(f"unknown cavity kind {self.kind!r}")
        if not (self.gamma > 0.0 and np.isfinite(self.gamma)):
            raise ValueError("gamma must be positive and finite")
        if not (self.omega_0 > 0.0 and np.isfinite(self.omega_0)):
            raise ValueError("omega_0 must be positive and finite")
        if not (self.gamma_e >= 0.0 and np.isfinite(self.gamma_e)):
            raise ValueError("gamma_e must be non-negative and finite")
        if self.kind == "dicke":
            if self.lambda_c < 0.0 or not np.isfinite(self.lambda_c):
                raise ValueError("lambda_c must be non-negative and finite")
            if self.omega_e is None or not (self.omega_e > 0.0 and np.isfinite(self.omega_e)):
                raise ValueError("dicke cavity requires a positive, finite emitter frequency")
            # Guard well below the superradiant critical point of the Dicke
            # model, lambda_crit = sqrt(omega_0 * omega_e) / 2.
            if self.lambda_c >= 0.5 * np.sqrt(self.omega_0 * self.omega_e):
                raise ValueError("lambda_c is at or beyond the Dicke critical point")

    @property
    def strong_coupling(self) -> bool:
        """True when lambda_c exceeds gamma/2 (resolved-polariton regime)."""
        return self.kind == "dicke" and self.lambda_c > self.gamma / 2.0

    def flags(self) -> tuple[str, ...]:
        out = []
        if self.kind == "dicke" and not self.strong_coupling:
            out.append("weak_coupling")
        if self.gamma_e > 0.0:
            out.append("extension:emitter_damping")
        return tuple(out)


@dataclass(frozen=True)
class TransferCurve:
    """Sampled complex C(omega) on a strictly monotone axis, either way; |C|^2
    and the phase, unwrapped along the axis, are computed when read.  With a
    phase split the two sides are unwrapped independently, so a physical
    discontinuity there survives; a sample exactly at the split keeps its raw
    angle."""

    axis: np.ndarray
    values: np.ndarray
    flags: tuple[str, ...] = ()
    _phase_split: float | None = None

    def __post_init__(self):
        axis = np.array(self.axis, dtype=float, order="C")
        values = np.array(self.values, dtype=complex, order="C")
        if axis.ndim != 1 or values.shape != axis.shape:
            raise ValueError("axis and values must be matching 1-d arrays")
        steps = np.diff(axis)
        if not (np.all(steps > 0.0) or np.all(steps < 0.0)):
            raise ValueError("axis must be strictly monotone")
        if not np.all(np.isfinite(values)):
            raise ValueError("transfer values must be finite")
        if np.any(np.abs(values) ** 2 > 1.0 + 1e-9):
            raise ValueError("transmission exceeds 1 beyond tolerance")
        for name, arr in (("axis", axis), ("values", values)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def transmission(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    @property
    def phase(self) -> np.ndarray:
        phase = np.angle(self.values)
        if self._phase_split is None:
            return np.unwrap(phase)
        for side in (self.axis < self._phase_split, self.axis > self._phase_split):
            phase[side] = np.unwrap(phase[side])
        return phase


def transfer_for(model: CavityModel, axis: np.ndarray) -> TransferCurve:
    """Sampled response of the model's cavity kind on `axis`.

    one_sided is the all-pass response of a cavity with loss through a single
    mirror.  two_sided is the Lorentzian of a cavity with equally leaky
    mirrors: C(omega_0) = 1 and |C|^2 has FWHM 2*gamma in angular frequency.
    dicke is the cavity coupled to a collective emitter mode: at zero
    detuning the transmission shows unit-height polariton peaks at
    omega_0 +/- lambda_c and, without emitter damping, an exact zero at the
    emitter frequency, where the phase jumps by pi.  A dicke cavity with
    lambda_c = 0 is the two-sided response.
    """
    w = np.asarray(axis, dtype=float)
    d = w - model.omega_0
    split = None
    if model.kind == "one_sided":
        half = model.gamma / 2.0
        values = (half - 1j * d) / (half + 1j * d)
    elif model.kind == "two_sided" or model.lambda_c == 0.0:
        values = model.gamma / (model.gamma + 1j * d)
    else:
        de = w - model.omega_e
        with np.errstate(divide="ignore", invalid="ignore"):
            self_energy = model.lambda_c**2 / (1j * de + model.gamma_e / 2.0)
            values = model.gamma / (model.gamma + 1j * d + self_energy)
        if model.gamma_e == 0.0:
            # Defined limit at the pole: |C| -> 0 from both sides.
            values[de == 0.0] = 0.0
            split = model.omega_e
    return TransferCurve(axis=axis, values=values, flags=model.flags(), _phase_split=split)
