"""Qubit states as Bloch vectors.

A state is kept as its Bloch vector r, rho = (I + r.sigma)/2, which lies in
the closed unit ball; its purity is Tr[rho^2] = (1 + |r|^2)/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
