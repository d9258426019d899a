"""Independent brute-force references: an adaptive reference flow, backward
shooting, finite-difference Jacobians, quartic root formulas for the
mode-pair blocks, and the direct triad sum of the MMT cubic.

The reference flow is SciPy's adaptive Dormand-Prince 8(5,3) (DOP853) at
tight tolerances, not the fixed-step RK4 of `linalg` or the exponential
quadrature of the Lyapunov-Perron sweep, so its error is uncorrelated with
the methods it checks.
"""

from __future__ import annotations

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
    "reference_flow",
]


@dataclass
class ShootingResult:
    base_point: np.ndarray
    matched_value: np.ndarray   # complement part of Binv (u(0) - eq)
    shooting_time: float
    match_residual: float
    newton_iterations: int


def reference_flow(field, y0, t0: float, t1: float, t_eval=None):
    """Flow of the autonomous system y' = field(y) from t0 to t1 (either
    direction) by DOP853 at rtol 1e-12, atol 1e-14.

    Returns the state at t1, or one row per time of t_eval (monotone from t0
    towards t1).  Raises RuntimeError when the solver gives up, e.g. at a
    blow-up.
    """
    # imported here: at module level scipy.integrate would add 0.2-0.3 s to
    # every import of the package, and so to every `lpman` start
    from scipy.integrate import solve_ivp

    sol = solve_ivp(lambda t, y: field(y), (t0, t1),
                    np.asarray(y0, dtype=float), method="DOP853",
                    rtol=1e-12, atol=1e-14, t_eval=t_eval)
    if not sol.success:
        raise RuntimeError(f"reference flow failed: {sol.message}")
    return sol.y[:, -1] if t_eval is None else sol.y.T


def backward_shoot(model, splitting: SpectralSplitting, target_plus,
                   T: float, tol: float = 1e-9,
                   max_iter: int = 50) -> ShootingResult:
    """Manifold value at a base point by shooting from near the equilibrium,
    in the split coordinates y = Binv (u - eq) of the splitting, as lp_solve
    reads them.

    Initial conditions at t = -T are eq + B_plus w, in the unstable subspace
    (complement part zero), carried forward by `reference_flow`, and the
    parameters w solved so that the unstable part (Binv (u(0) - eq))[:d_plus]
    hits target_plus.  Exponentially decaying orbits lie on the manifold, so
    the matched complement part (Binv (u(0) - eq))[d_plus:] is the oracle
    value.  Requires dim X_+ <= 3.
    """
    d_plus = splitting.dim_plus
    if d_plus == 0 or d_plus > 3:
        raise ValueError("backward shooting requires 1 <= dim X_+ <= 3")
    target = as_state(target_plus, d_plus)
    Bp, Binv = splitting.B[:, :d_plus], splitting.Binv
    eq = model.equilibrium
    A_plus = Binv[:d_plus] @ model.jacobian(eq) @ Bp
    # parameterize through the backward linear flow so the unknowns stay
    # O(target) and the shot Jacobian stays O(1) despite the e^{rate*T} growth
    back = sla.expm(-T * A_plus)

    def flow_plus(theta):
        u = eq + Bp @ (back @ theta)
        y_end = Binv @ (reference_flow(model.vector_field, u, -T, 0.0) - eq)
        return y_end[:d_plus], y_end[d_plus:]

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
    """Central-difference Jacobian, column by column; F is called only at
    the perturbed states u +- h_step e_j."""
    if h_step <= 0:
        raise ValueError("h_step must be positive")
    u = as_state(u)
    if not u.size:
        raise ValueError("finite_difference_jacobian needs a nonempty state")
    return np.stack([(np.asarray(F(u + e)) - np.asarray(F(u - e)))
                     / (2 * h_step) for e in h_step * np.eye(u.size)],
                    axis=1, dtype=float)


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
