"""Independent numpy oracle for tabulated ensembles.

Nothing here imports `hamens`.  The radial expectations integrate the
piecewise-linear model P(omega) omega^2 with a fixed composite Gauss-Legendre
rule (each table segment cut into sub-panels, far finer than one period of
the oscillating factor on the grids used), and the angular moments integrate
the bilinear interpolant cell by cell.  The channel is the lab-frame map

    M(t) = c (xi I - S) + S / xi + s [<n>]x ,

valid for any orientation of the moments, and the generator is L = Mdot M^-1.
"""

from __future__ import annotations

import numpy as np

_GL_NODES = 12
_SUB_PANELS = 2


def _gl(order=_GL_NODES):
    return np.polynomial.legendre.leggauss(order)


def _panel_nodes(edges, sub=_SUB_PANELS):
    """Nodes and weights of a composite GL rule on the given panel edges."""
    fine = np.concatenate([np.linspace(a, b, sub + 1)[:-1] for a, b in zip(edges[:-1], edges[1:])]
                          + [edges[-1:]])
    x, w = _gl()
    mid = 0.5 * (fine[:-1] + fine[1:])[:, None]
    half = 0.5 * np.diff(fine)[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


def radial_expectations(omega, density, t):
    """<cos wt>, <sin wt> and their time derivatives, each of shape t.shape."""
    nodes, weights = _panel_nodes(np.asarray(omega, dtype=float))
    wts = weights * np.interp(nodes, omega, density) * nodes * nodes
    phase = np.outer(np.asarray(t, dtype=float), nodes)
    cos_p, sin_p = np.cos(phase), np.sin(phase)
    return (cos_p @ wts, sin_p @ wts, -(sin_p @ (wts * nodes)), cos_p @ (wts * nodes))


def angular_moments(theta, phi, values):
    """(xi, first, second) of the bilinear interpolant of a (theta, phi) table."""
    x, w = _gl()
    u = 0.5 * (x + 1.0)
    th = (theta[:-1, None] + np.diff(theta)[:, None] * u).ravel()
    th_w = (0.5 * np.diff(theta)[:, None] * w).ravel()
    ph = (phi[:-1, None] + np.diff(phi)[:, None] * u).ravel()
    ph_w = (0.5 * np.diff(phi)[:, None] * w).ravel()
    # interpolate along theta, then along phi, inside each cell
    wt = np.tile(u, theta.size - 1)
    it = np.repeat(np.arange(theta.size - 1), u.size)
    along_theta = (1.0 - wt)[:, None] * values[it] + wt[:, None] * values[it + 1]
    wp = np.tile(u, phi.size - 1)
    ip = np.repeat(np.arange(phi.size - 1), u.size)
    dens = (1.0 - wp)[None, :] * along_theta[:, ip] + wp[None, :] * along_theta[:, ip + 1]
    measure = dens * (th_w * np.sin(th))[:, None] * ph_w[None, :]
    n = [np.sin(th)[:, None] * np.cos(ph)[None, :],
         np.sin(th)[:, None] * np.sin(ph)[None, :],
         np.cos(th)[:, None] * np.ones_like(ph)[None, :]]
    xi = float(np.sum(measure))
    first = np.array([np.sum(measure * n[j]) for j in range(3)])
    second = np.array([[np.sum(measure * n[j] * n[k]) for k in range(3)] for j in range(3)])
    return xi, first, second


def _cross(v):
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


class TabulatedOracle:
    """Lab-frame map, trajectory and generator of one tabulated ensemble."""

    def __init__(self, radial, angular):
        self.omega, self.density = (np.asarray(a, dtype=float) for a in radial)
        self.xi, self.first, self.second = angular_moments(*angular)

    def maps(self, t):
        """M(t) and Mdot(t), each of shape (len(t), 3, 3)."""
        c, s, dc, ds = radial_expectations(self.omega, self.density, t)
        base = self.xi * np.eye(3) - self.second
        cross = _cross(self.first)
        m = (c[:, None, None] * base + self.second / self.xi + s[:, None, None] * cross)
        mdot = dc[:, None, None] * base + ds[:, None, None] * cross
        return m, mdot

    def trajectory(self, t, bloch):
        """Bloch vectors (len(t), 3) and purities (len(t),)."""
        m, _ = self.maps(t)
        r = m @ np.asarray(bloch, dtype=float)
        return r, 0.5 * (1.0 + np.sum(r * r, axis=1))

    def rates(self, t):
        """Columns of the `rates` CSV plus det M, each of shape (len(t),)."""
        m, mdot = self.maps(t)
        det = np.linalg.det(m)
        ell = mdot @ np.linalg.inv(m)
        sym = 0.5 * (ell + np.swapaxes(ell, 1, 2))
        k = sym - 0.5 * np.trace(sym, axis1=1, axis2=2)[:, None, None] * np.eye(3)
        anti = 0.5 * (ell - np.swapaxes(ell, 1, 2))
        return {"gamma_x": k[:, 0, 0], "gamma_y": k[:, 1, 1], "gamma_z": k[:, 2, 2],
                "gamma_xy": k[:, 0, 1], "omega_bar": anti[:, 1, 0],
                "kossakowski_min": np.linalg.eigvalsh(k)[:, 0], "det": det}

    def det(self, t):
        m, _ = self.maps(np.atleast_1d(t))
        return np.linalg.det(m)

    def aligned(self) -> bool:
        """First moment along z and diagonal second moments, to roundoff."""
        off = self.second - np.diag(np.diag(self.second))
        return bool(max(abs(self.first[0]), abs(self.first[1]), np.max(np.abs(off))) < 1e-12)
