"""Parameter bundles for the offset transforms.

A bundle is the matrix (a, b; c, d) with det = 1 plus the spatial offset tau
and the modulation offset eta.  All angle/magnitude/phase quantities the
kernels need are derived here once, and the kernel's input and output
phases are written here only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["KernelParams", "OffsetParams"]

_DET_TOL = 1e-12


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _check_count(name: str, value, least: int = 1) -> int:
    """`value` as an int; anything but an integer >= least (1 or 0) raises
    ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        kind = "positive" if least else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class KernelParams:
    """Raw kernel bundle; b may have either sign (internal inverse use).
    Every entry must be finite and the determinant 1 (else ValueError)."""

    a: float
    b: float
    c: float
    d: float
    tau: tuple[float, float] = (0.0, 0.0)
    eta: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "tau", (float(self.tau[0]), float(self.tau[1])))
        object.__setattr__(self, "eta", (float(self.eta[0]), float(self.eta[1])))
        # a NaN entry would pass the determinant test, whose comparison is False
        for name in ("a", "b", "c", "d", "tau", "eta"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        det = self.a * self.d - self.b * self.c
        if abs(det - 1.0) > _DET_TOL:
            raise ValueError(f"parameter matrix must have unit determinant, got {det!r}")
        if self.b == 0.0:
            raise ValueError("b = 0 is outside the supported branch")

    # -- derived scalars -------------------------------------------------

    @property
    def mu1(self) -> float:
        return math.hypot(*self.tau)

    @property
    def shift_vec(self) -> tuple[float, float]:
        """d*tau - b*eta, the vector whose magnitude is mu2."""
        return (
            self.d * self.tau[0] - self.b * self.eta[0],
            self.d * self.tau[1] - self.b * self.eta[1],
        )

    @property
    def mu2(self) -> float:
        return math.hypot(*self.shift_vec)

    @property
    def phi1(self) -> float:
        # atan2 resolves the tau2 = 0 coordinate singularity of tan phi1
        return math.atan2(self.tau[0], self.tau[1])

    @property
    def phi2(self) -> float:
        v = self.shift_vec
        return math.atan2(v[0], v[1])

    @property
    def ell1(self) -> complex:
        return cmath.exp(1j * self.d * self.mu1 ** 2 / self.b)

    @property
    def ell2(self) -> complex:
        return cmath.exp(-1j * self.a * self.mu2 ** 2 / self.b)

    @property
    def sigma(self) -> complex:
        return self.ell1 * self.ell2

    @property
    def has_offsets(self) -> bool:
        return self.mu1 != 0.0 or self.mu2 != 0.0

    def inverse(self) -> "KernelParams":
        """The inverse bundle (d, -b; -c, a) with offsets xi = b eta - d tau
        and gamma = c tau - a eta; inverting it again gives this bundle."""
        a, b, c, d = self.a, self.b, self.c, self.d
        (t1, t2), (e1, e2) = self.tau, self.eta
        return KernelParams(d, -b, -c, a, (b * e1 - d * t1, b * e2 - d * t2),
                            (c * t1 - a * e1, c * t2 - a * e2))

    # -- kernel phases: the offset kernel is ell1/(2 pi b) input_phase(r, theta)
    # e^{-i (r rho/b) cos(theta - phi)} output_phase(rho, phi).  Without the
    # angle or the offset, each phase is its bare chirp.

    def input_phase(self, r, theta=None):
        """e^{i a r^2/2b} e^{i (mu1/b) r sin(theta + phi1)}; it broadcasts
        with r and theta."""
        phase = np.exp(1j * (self.a / (2.0 * self.b)) * r ** 2)
        if theta is None or self.mu1 == 0.0:
            return phase
        return phase * np.exp(1j * (self.mu1 / self.b) * r * np.sin(theta + self.phi1))

    def output_phase(self, rho, phi=None):
        """e^{i d rho^2/2b} e^{-i (mu2/b) rho sin(phi + phi2)}; it broadcasts
        with rho and phi."""
        phase = np.exp(1j * (self.d / (2.0 * self.b)) * rho ** 2)
        if phi is None or self.mu2 == 0.0:
            return phase
        return phase * np.exp(-1j * (self.mu2 / self.b) * rho * np.sin(phi + self.phi2))


@dataclass(frozen=True)
class OffsetParams(KernelParams):
    """Public forward bundle: unit determinant and b > 0 enforced."""

    def __post_init__(self):
        super().__post_init__()
        if self.b <= 0.0:
            raise ValueError("forward transform requires b > 0")
