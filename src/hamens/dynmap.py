"""Exact ensemble-averaged dynamical map on Bloch vectors.

Averaging the unitary realizations of a separable ensemble gives a unital
qubit channel whose action on Bloch vectors is the 3x3 matrix

    M(t) = <cos omega t>_P (I - S) + S + <sin omega t>_P [<n>_Theta]_x ,

where S = <n n^T>_Theta is the second-moment matrix, <n>_Theta the first
moment and [v]_x the cross-product matrix.  The formula holds in any frame,
so the moments are used as the angular model gives them, in the lab frame.
Its diagonal entries for axis-aligned moments,

    f_j(t) = <cos omega t>_P (1 - S_jj) + S_jj ,

feed the closed-form generator of axis-aligned families (<n> along z, S
diagonal), `generator.aligned_generator`, which serves as an oracle.

A `MapFamily` is the ensemble itself: the radial model, the angular model
and the lab-frame moments, each model checked at construction for unit mass.

A qubit state is kept as its Bloch vector r, rho = (I + r.sigma)/2, which
lies in the closed unit ball; its purity is Tr[rho^2] = (1 + |r|^2)/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .angular import AngularModel, DirectionalMoments
from .radial import RadialModel


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

    def purity(self) -> float:
        return 0.5 * (1.0 + float(self.bloch @ self.bloch))


def _cross_matrix(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices [v]_x, [v]_x r = v x r, of vectors stacked on
    the last axis: shape (..., 3) gives (..., 3, 3)."""
    return np.swapaxes(np.cross(v[..., None, :], np.eye(3)), -1, -2)


@dataclass(frozen=True, eq=False)
class MapFamily:
    """A separable ensemble p(omega, theta, phi) = P(omega) Theta(theta, phi)
    with what the exact channel needs at any time: the radial model (for its
    expectations), the angular model and its lab-frame directional moments.

    Each factor has unit mass: construction verifies that the radial weight
    and the angular density each integrate to 1 within 1e-9.
    """

    radial: RadialModel
    angular: AngularModel
    moments: DirectionalMoments

    def __post_init__(self):
        for name, model in (("radial", self.radial), ("angular", self.angular)):
            mass = model.mass()
            if not abs(mass - 1.0) <= 1e-9:  # a NaN mass fails too
                raise ValueError(f"{name} mass must be 1, got {mass!r}")

    @classmethod
    def from_ensemble(cls, radial: RadialModel, angular: AngularModel) -> "MapFamily":
        """The family of two models, with the moments the angular model states in `moments()`."""
        return cls(radial, angular, angular.moments())


def map_matrices(fam: MapFamily, t, derivative: bool = False):
    """Stacked map matrices M(t), shape t.shape + (3, 3); with ``derivative``
    also the exact time derivatives, as the pair (M, Mdot).  One radial pass."""
    second = fam.moments.second
    cross = _cross_matrix(fam.moments.first)
    spread = np.eye(3) - second
    c, s, *rest = (np.asarray(e)[..., None, None]
                   for e in fam.radial.expectations(t, derivative))
    m = c * spread + second + s * cross
    if not derivative:
        return m
    dc, ds = rest
    return m, dc * spread + ds * cross


def diagonal_components(fam: MapFamily, t):
    """(f, fdot, s, sdot) from one radial pass, elementwise over t: the three
    f_j(t) built from the diagonal of S, shape t.shape + (3,), their time
    derivatives, s = <sin omega t> and its derivative.  The closed-form
    generator needs all four."""
    c, s, dc, ds = fam.radial.expectations(t, derivative=True)
    m2 = np.diag(fam.moments.second)
    f = np.asarray(c)[..., None] * (1.0 - m2) + m2
    return f, np.asarray(dc)[..., None] * (1.0 - m2), s, ds


def bloch_trajectory(fam: MapFamily, rho0: DensityMatrix, grid) -> np.ndarray:
    """Bloch vectors M(t) r0 on a time grid, shape (len(grid), 3)."""
    return map_matrices(fam, np.asarray(grid, dtype=float)) @ rho0.bloch


def purity_trajectory(fam: MapFamily, rho0: DensityMatrix, grid) -> np.ndarray:
    """Tr[rho(t)^2] = (1 + |M(t) r0|^2)/2 on a time grid."""
    r_t = bloch_trajectory(fam, rho0, grid)
    return 0.5 * (1.0 + np.sum(r_t * r_t, axis=-1))


def choi_check(m):
    """Smallest eigenvalue of the unit-trace Choi matrix of each unital map in m,
    shape (..., 3, 3); >= 0 iff the map is completely positive.

    With the signed singular values l1 >= l2 >= |l3| of m = U diag(s) V^T
    (l3 = -s3 when det U det V^T < 0), the four eigenvalues are
    (1 + l3 +- (l1 + l2))/4 and (1 - l3 +- (l1 - l2))/4 (Fujiwara & Algoet,
    PRA 59, 3290 (1999); King & Ruskai, IEEE Trans. Inf. Theory 47, 192 (2001)).
    """
    u, s, vt = np.linalg.svd(np.asarray(m, dtype=float))
    flip = np.linalg.det(u) * np.linalg.det(vt) < 0.0
    l1, l2, l3 = s[..., 0], s[..., 1], np.where(flip, -s[..., 2], s[..., 2])
    return np.minimum(1.0 + l3 - np.abs(l1 + l2), 1.0 - l3 - np.abs(l1 - l2)) / 4.0
