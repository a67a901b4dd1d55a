"""Exact 2x2 algebra for single-qubit Hamiltonians and states.

A traceless qubit Hamiltonian is written in spherical coordinates as
(omega/2) n.sigma with omega >= 0 and n a unit vector; its propagator has
the closed form U(t) = cos(omega t/2) I - i sin(omega t/2) n.sigma.
States are kept as Bloch vectors, rho = (I + r.sigma)/2, and single
realizations evolve by the corresponding axis-angle rotation of r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class UnitVector:
    """Direction on the unit sphere, polar angle theta and azimuth phi.

    theta is clamped to [0, pi] and phi wrapped into [0, 2*pi) at
    construction; the Cartesian components are cached.
    """

    theta: float
    phi: float
    nx: float = field(init=False, repr=False)
    ny: float = field(init=False, repr=False)
    nz: float = field(init=False, repr=False)

    def __post_init__(self):
        theta = min(max(float(self.theta), 0.0), math.pi)
        phi = float(self.phi) % _TWO_PI
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)
        st = math.sin(theta)
        object.__setattr__(self, "nx", st * math.cos(phi))
        object.__setattr__(self, "ny", st * math.sin(phi))
        object.__setattr__(self, "nz", math.cos(theta))

    @classmethod
    def from_cartesian(cls, v) -> "UnitVector":
        v = np.asarray(v, dtype=float)
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            raise ValueError("zero vector has no direction")
        return cls(theta=math.acos(min(max(v[2] / norm, -1.0), 1.0)),
                   phi=math.atan2(v[1], v[0]))

    def as_array(self) -> np.ndarray:
        return np.array([self.nx, self.ny, self.nz])


@dataclass(frozen=True)
class MemberHamiltonian:
    """One ensemble member, (omega/2) n.sigma with nonnegative omega."""

    omega: float
    direction: UnitVector

    def __post_init__(self):
        if not (self.omega >= 0.0):
            raise ValueError(f"omega must be >= 0, got {self.omega}")

    def matrix(self) -> np.ndarray:
        n = self.direction
        return 0.5 * self.omega * (n.nx * SIGMA_X + n.ny * SIGMA_Y + n.nz * SIGMA_Z)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Qubit state as a Bloch vector r with |r| <= 1."""

    bloch: np.ndarray

    def __post_init__(self):
        r = np.array(self.bloch, dtype=float).reshape(3)
        if not np.all(np.isfinite(r)):
            raise ValueError(f"Bloch vector components must be finite, got {r}")
        if np.linalg.norm(r) > 1.0 + 1e-12:
            raise ValueError(f"Bloch vector outside the unit ball: |r|={np.linalg.norm(r)}")
        r.setflags(write=False)
        object.__setattr__(self, "bloch", r)

    @classmethod
    def from_matrix(cls, rho) -> "DensityMatrix":
        rho = np.asarray(rho, dtype=complex)
        r = np.array([np.trace(p @ rho).real for p in PAULIS])
        return cls(r)

    def matrix(self) -> np.ndarray:
        r = self.bloch
        return 0.5 * (IDENTITY + r[0] * SIGMA_X + r[1] * SIGMA_Y + r[2] * SIGMA_Z)

    def purity(self) -> float:
        return 0.5 * (1.0 + float(self.bloch @ self.bloch))


def unitary_at(h: MemberHamiltonian, t: float) -> np.ndarray:
    """Propagator cos(omega t/2) I - i sin(omega t/2) n.sigma."""
    half = 0.5 * h.omega * t
    n = h.direction
    nsigma = n.nx * SIGMA_X + n.ny * SIGMA_Y + n.nz * SIGMA_Z
    return math.cos(half) * IDENTITY - 1j * math.sin(half) * nsigma


def evolve_single(rho0: DensityMatrix, h: MemberHamiltonian, t: float) -> DensityMatrix:
    """Conjugate rho0 by the propagator of h; axis-angle rotation of the Bloch vector."""
    angle = h.omega * t
    n = h.direction.as_array()
    r = rho0.bloch
    c, s = math.cos(angle), math.sin(angle)
    r_t = c * r + s * np.cross(n, r) + (1.0 - c) * (n @ r) * n
    return DensityMatrix(r_t)


def purity(rho: DensityMatrix) -> float:
    """Tr[rho^2] = (1 + |r|^2)/2, between 1/2 and 1."""
    return rho.purity()
