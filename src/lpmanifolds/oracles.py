"""Independent brute-force references: backward shooting, finite-difference
Jacobians, quartic root formulas for the mode-pair blocks, and the direct
triad sum of the MMT cubic.

These deliberately use their own integrators and step sizes so their
discretization error is uncorrelated with the methods they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .graded import as_state
from .linalg import SpectralSplitting
from .models import MmtParams, mmt_plane_wave_frequency

__all__ = [
    "ShootingResult",
    "backward_shoot",
    "finite_difference_jacobian",
    "mmt_cubic_direct",
    "quartic_roots",
]


@dataclass
class ShootingResult:
    base_point: np.ndarray
    matched_value: np.ndarray   # complement coordinates of u(0)
    shooting_time: float
    match_residual: float
    newton_iterations: int


def _rk4(f, y, t0, t1, dt):
    """Local fixed-step RK4 (kept separate from the main integration path)."""
    span = t1 - t0
    n = max(1, int(math.ceil(abs(span) / dt)))
    h = span / n
    t = t0
    for _ in range(n):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return y


def backward_shoot(model, splitting: SpectralSplitting, target_plus,
                   T: float, tol: float = 1e-9, dt: float = 2e-3,
                   max_iter: int = 50) -> ShootingResult:
    """Manifold value at a base point by shooting from near the equilibrium.

    Initial conditions at t = -T are parameterized as eps*w in the unstable
    subspace (complement part zero), integrated forward by RK4, and the
    parameters solved so the unstable projection of u(0) hits target_plus.
    Exponentially decaying orbits lie on the manifold, so the matched
    complement part of u(0) is the oracle value.  Requires dim X_+ <= 3.
    """
    d_plus = splitting.dim_plus
    if d_plus == 0 or d_plus > 3:
        raise ValueError("backward shooting requires 1 <= dim X_+ <= 3")
    target = as_state(target_plus, d_plus)
    Bp = splitting.projection.basis_plus
    Br = splitting.projection.basis_rest
    eq = model.equilibrium
    A_plus = Bp.T @ model.jacobian(eq) @ Bp
    # parameterize through the backward linear flow so the unknowns stay
    # O(target) and the shot Jacobian stays O(1) despite the e^{rate*T} growth
    back = sla.expm(-T * A_plus)

    def flow_plus(theta):
        u = eq + Bp @ (back @ theta)
        u_end = _rk4(lambda y: model.vector_field(y), u, -T, 0.0, dt)
        y_end = u_end - eq
        return Bp.T @ y_end, Br.T @ y_end

    theta = target.copy()
    res_vec, rest = flow_plus(theta)
    res_vec = res_vec - target
    res = np.linalg.norm(res_vec)
    it = 0
    while res > tol:
        it += 1
        if it > max_iter:
            raise RuntimeError(
                f"shooting Newton failed after {max_iter} iterations "
                f"(residual {res:.3e})")
        J = np.empty((d_plus, d_plus))
        h = 1e-6 * (1.0 + np.linalg.norm(theta))
        for k in range(d_plus):
            dth = np.zeros(d_plus)
            dth[k] = h
            rp, _ = flow_plus(theta + dth)
            J[:, k] = (rp - target - res_vec) / h
        step = np.linalg.solve(J, -res_vec)
        lam = 1.0
        while lam > 1e-6:
            cand = theta + lam * step
            rv, rr = flow_plus(cand)
            rv = rv - target
            if np.linalg.norm(rv) < res:
                theta, res_vec, rest, res = cand, rv, rr, np.linalg.norm(rv)
                break
            lam *= 0.5
        else:
            raise RuntimeError(
                f"shooting Newton stagnated (residual {res:.3e})")
    return ShootingResult(base_point=target, matched_value=rest,
                          shooting_time=T, match_residual=float(res),
                          newton_iterations=it)


def finite_difference_jacobian(F, u, h_step: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian, column by column."""
    if h_step <= 0:
        raise ValueError("h_step must be positive")
    u = as_state(u)
    f0 = np.asarray(F(u), dtype=float)
    n_out, n_in = f0.shape[0], u.shape[0]
    J = np.empty((n_out, n_in))
    for j in range(n_in):
        e = np.zeros(n_in)
        e[j] = h_step
        J[:, j] = (np.asarray(F(u + e)) - np.asarray(F(u - e))) / (2 * h_step)
    return J


def quartic_roots(c_plus: float, c_minus: float, c: float) -> np.ndarray:
    """Roots of lambda^4 + (c+^2 + c-^2 - 2c^2) lambda^2 + (c+c- - c^2)^2 = 0.

    Solved by the quadratic formula in lambda^2; returned sorted by (Re, Im).
    """
    B = c_plus * c_plus + c_minus * c_minus - 2.0 * c * c
    C = (c_plus * c_minus - c * c) ** 2
    disc = complex(B * B - 4.0 * C)
    s = np.sqrt(disc)
    roots = []
    for z in ((-B + s) / 2.0, (-B - s) / 2.0):
        r = np.sqrt(complex(z))
        roots.extend([r, -r])
    return np.array(sorted(roots, key=lambda w: (w.real, w.imag)))


def mmt_cubic_direct(p: MmtParams, u) -> tuple[np.ndarray, np.ndarray, float]:
    """(field, Jacobian, energy) of the MMT Galerkin truncation at one state.

    The cubic is the direct sum over every retained triad (i, j, k) with
    xi_i - xi_j + xi_k retained, term w_i conj(w_j) w_k, w = |xi|^beta z.
    Memory grows like N^3, so this is a reference for small mode sets only.
    State and Jacobian use the interleaved (Re, Im) coordinates of
    models.mmt_galerkin.
    """
    modes = list(p.mode_set)
    N = len(modes)
    u = as_state(u, 2 * N)
    z = u[0::2] + 1j * u[1::2]
    mult = np.array([abs(xi) ** p.beta for xi in modes], dtype=float)
    disp = (np.array([abs(xi) ** (2 * p.alpha) for xi in modes], dtype=float)
            + mmt_plane_wave_frequency(p))
    pos = {xi: n for n, xi in enumerate(modes)}
    I, J, K, OUT = [], [], [], []
    for i, x1 in enumerate(modes):
        for j, x2 in enumerate(modes):
            for k, x3 in enumerate(modes):
                n = pos.get(x1 - x2 + x3)
                if n is not None:
                    I.append(i); J.append(j); K.append(k); OUT.append(n)
    I, J, K, OUT = map(np.array, (I, J, K, OUT))
    coef = mult[I] * mult[J] * mult[K]
    cubic = np.zeros(N, dtype=complex)
    np.add.at(cubic, OUT, coef * z[I] * np.conj(z[J]) * z[K])
    field_c = -1j * (disp * z + p.sigma * mult * cubic)
    Gz = np.zeros((N, N), dtype=complex)
    Gzb = np.zeros((N, N), dtype=complex)
    np.add.at(Gz, (OUT, I), coef * np.conj(z[J]) * z[K])
    np.add.at(Gz, (OUT, K), coef * z[I] * np.conj(z[J]))
    np.add.at(Gzb, (OUT, J), coef * z[I] * z[K])
    Az = -1j * (np.diag(disp) + p.sigma * mult[:, None] * Gz)
    Bz = -1j * p.sigma * mult[:, None] * Gzb
    field = np.empty(2 * N)
    field[0::2], field[1::2] = field_c.real, field_c.imag
    jac = np.empty((2 * N, 2 * N))
    jac[0::2, 0::2] = Az.real + Bz.real
    jac[0::2, 1::2] = -Az.imag + Bz.imag
    jac[1::2, 0::2] = Az.imag + Bz.imag
    jac[1::2, 1::2] = Az.real - Bz.real
    quart = float(np.real(np.sum(cubic * np.conj(mult * z))))
    energy = 0.5 * float(np.sum(disp * np.abs(z) ** 2)) + 0.25 * p.sigma * quart
    return field, jac, energy
