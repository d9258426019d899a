"""Spectral splitting, Lyapunov quadratic forms, and non-autonomous evolution.

Splits the equilibrium linearization into unstable/center/stable blocks with
true spectral projections (ordered Schur + Sylvester), builds the quadratic
forms L solving A^T L + L A - 2 w L = -I that certify dissipativity at rate w,
and integrates linear systems v' = A(t)v along stored trajectories with
growth-bound and metric-variation diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.linalg as sla

from .graded import OrbitGrid, as_state

__all__ = [
    "AmbiguousSplitError",
    "ProjectionPair",
    "SpectralSplitting",
    "LyapunovForm",
    "Timeline",
    "eigen_split",
    "hamiltonian_symmetry_check",
    "lyapunov_form",
    "dissipativity_check",
    "evolve",
    "transition_matrix",
    "growth_bound_check",
    "metric_variation_bound",
    "picard_solve",
    "variational_flow",
    "rk4_step",
    "integrate_rk4",
]


class AmbiguousSplitError(ValueError):
    """An eigenvalue sits inside the forbidden band around the gap boundary."""


def _as_matrix(A) -> np.ndarray:
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix contains non-finite entries")
    return M


@dataclass
class ProjectionPair:
    """Spectral projections onto X_+ and its complement (center + stable)."""

    basis_plus: np.ndarray      # columns: orthonormal basis of X_+
    basis_rest: np.ndarray      # columns: orthonormal basis of the complement
    projector_plus: np.ndarray
    projector_rest: np.ndarray


@dataclass
class SpectralSplitting:
    """Eigen-decomposition of a linearization into +/0/- blocks with rates.

    omega_plus is a strict lower bound on Re(lambda) over X_+, omega_minus a
    bound above every complement eigenvalue; lambda_plus / lambda_plus_max are
    the realized extreme unstable rates, rest_max_re the fastest complement
    rate.  The dichotomy window used by the Lyapunov-Perron iteration is the
    open interval (rest_max_re, lambda_plus).
    """

    eigenvalues: np.ndarray
    blocks: list[str]            # '+', '0' or '-' per eigenvalue
    projection: ProjectionPair
    dim_plus: int
    dim_center: int
    dim_minus: int
    omega_plus: float
    omega_minus: float
    lambda_plus: float
    lambda_plus_max: float
    rest_max_re: float
    gap: float

    @property
    def dim(self) -> int:
        return self.dim_plus + self.dim_center + self.dim_minus

    @property
    def realized_gap(self) -> float:
        return self.lambda_plus - self.rest_max_re


def eigen_split(A, gap: float) -> SpectralSplitting:
    """Split A into X_+ (Re > gap) and the complement (Re <= gap).

    Projections come from ordered real Schur forms plus a Sylvester solve, so
    they are true spectral projectors (commute with A to roundoff).  An
    eigenvalue with | |Re| - gap | < 0.1*gap is refused as ambiguous.
    """
    M = _as_matrix(A)
    if gap <= 0:
        raise ValueError("gap must be positive")
    n = M.shape[0]
    lam = np.linalg.eigvals(M)
    for z in lam:
        if abs(abs(z.real) - gap) < 0.1 * gap:
            raise AmbiguousSplitError(
                f"eigenvalue {z} has |Re| within 10% of the gap boundary "
                f"+/-{gap}; adjust gap")
    blocks = ['+' if z.real > gap else ('-' if z.real < -gap else '0')
              for z in lam]
    dim_plus = blocks.count('+')
    dim_center = blocks.count('0')
    dim_minus = blocks.count('-')

    if dim_plus == 0:
        basis_plus = np.zeros((n, 0))
        basis_rest = np.eye(n)
        P_plus = np.zeros((n, n))
    elif dim_plus == n:
        basis_plus = np.eye(n)
        basis_rest = np.zeros((n, 0))
        P_plus = np.eye(n)
    else:
        T, Z, sdim = sla.schur(M, output='real', sort=lambda re, im: re > gap)
        if sdim != dim_plus:
            raise AmbiguousSplitError(
                f"Schur reordering found {sdim} unstable eigenvalues, "
                f"eigvals found {dim_plus}; adjust gap")
        T11, T12, T22 = T[:sdim, :sdim], T[:sdim, sdim:], T[sdim:, sdim:]
        Y = sla.solve_sylvester(T11, -T22, T12)
        core = np.zeros((n, n))
        core[:sdim, :sdim] = np.eye(sdim)
        core[:sdim, sdim:] = Y
        P_plus = Z @ core @ Z.T
        basis_plus = Z[:, :sdim]
        _, Z2, sdim2 = sla.schur(M, output='real',
                                 sort=lambda re, im: re <= gap)
        if sdim2 != n - dim_plus:
            raise AmbiguousSplitError(
                "complementary Schur reordering inconsistent; adjust gap")
        basis_rest = Z2[:, :sdim2]
    P_rest = np.eye(n) - P_plus
    # deterministic orientation: largest-magnitude entry of each column >= 0
    for Bmat in (basis_plus, basis_rest):
        for j in range(Bmat.shape[1]):
            k = int(np.argmax(np.abs(Bmat[:, j])))
            if Bmat[k, j] < 0:
                Bmat[:, j] *= -1.0

    plus_re = np.array([z.real for z, b in zip(lam, blocks) if b == '+'])
    rest_re = np.array([z.real for z, b in zip(lam, blocks) if b != '+'])
    lambda_plus = float(plus_re.min()) if plus_re.size else math.inf
    lambda_plus_max = float(plus_re.max()) if plus_re.size else math.inf
    rest_max_re = float(rest_re.max()) if rest_re.size else -math.inf
    omega_plus = 0.5 * (gap + lambda_plus) if plus_re.size else gap
    omega_minus = 0.5 * (rest_max_re + gap) if rest_re.size else -gap

    order = np.argsort(lam.real)[::-1]
    return SpectralSplitting(
        eigenvalues=lam[order],
        blocks=[blocks[i] for i in order],
        projection=ProjectionPair(basis_plus, basis_rest, P_plus, P_rest),
        dim_plus=dim_plus, dim_center=dim_center, dim_minus=dim_minus,
        omega_plus=omega_plus, omega_minus=omega_minus,
        lambda_plus=lambda_plus, lambda_plus_max=lambda_plus_max,
        rest_max_re=rest_max_re, gap=gap)


def hamiltonian_symmetry_check(A, tol: float = 1e-8) -> dict:
    """Check the spectrum is symmetric under lambda -> -conj(lambda).

    Returns {'worst': max over eigenvalues of the distance to the nearest
    partner, 'symmetric': worst <= tol}.  Report-only.
    """
    M = _as_matrix(A)
    lam = np.linalg.eigvals(M)
    remaining = list(lam)
    worst = 0.0
    for z in lam:
        target = -np.conj(z)
        dists = [abs(w - target) for w in remaining]
        j = int(np.argmin(dists))
        worst = max(worst, dists[j])
    return {"worst": float(worst), "symmetric": bool(worst <= tol)}


@dataclass
class LyapunovForm:
    """Symmetric positive definite L with A^T L + L A - 2 w L = -I."""

    L: np.ndarray
    omega: float

    def __post_init__(self):
        sym_defect = np.linalg.norm(self.L - self.L.T)
        if sym_defect > 1e-12 * max(np.linalg.norm(self.L), 1.0):
            raise ValueError("L is not symmetric")
        if np.linalg.eigvalsh(self.L).min() <= 0:
            raise ValueError("L is not positive definite")


def lyapunov_form(A, omega: float) -> LyapunovForm:
    """Quadratic form <Lu,v> = int_0^inf e^(-2*omega*s) (e^{sA}u, e^{sA}v) ds.

    Equivalently the unique symmetric solution of A^T L + L A - 2 omega L = -I,
    which exists iff omega exceeds the spectral abscissa of A.  Solved by
    the Bartels-Stewart (Schur) method.
    """
    M = _as_matrix(A)
    abscissa = np.linalg.eigvals(M).real.max()
    if omega <= abscissa:
        raise ValueError(
            f"spectral abscissa violated: omega={omega} <= max Re sigma(A)="
            f"{abscissa}")
    n = M.shape[0]
    # B^T L + L B = -I with B = A - omega I
    L = sla.solve_continuous_lyapunov((M - omega * np.eye(n)).T, -np.eye(n))
    L = 0.5 * (L + L.T)
    residual = np.linalg.norm(M.T @ L + L @ M - 2 * omega * L + np.eye(n))
    if residual > 1e-10:
        raise ValueError(f"Lyapunov equation residual {residual:.3e} > 1e-10")
    return LyapunovForm(L=L, omega=omega)


def dissipativity_check(form: LyapunovForm, A, omega: float) -> float:
    """Largest generalized eigenvalue of sym(LA) relative to L, minus omega.

    A nonpositive return certifies <Lw, Aw> <= omega <Lw, w> for all w.
    """
    M = _as_matrix(A)
    S = 0.5 * (form.L @ M + M.T @ form.L)
    mu = sla.eigh(S, form.L, eigvals_only=True).max()
    return float(mu - omega)


# ---------------------------------------------------------------------------
# time stepping

def rk4_step(f: Callable[[float, np.ndarray], np.ndarray], t: float,
             y: np.ndarray, h: float) -> np.ndarray:
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def integrate_rk4(f, y0: np.ndarray, t0: float, t1: float, dt: float,
                  record_times: Sequence[float] | None = None):
    """Fixed-step classical RK4 from t0 to t1 (either direction).

    Returns the final state, or (times, states) when record_times is given
    (record_times must be monotone from t0 towards t1).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    span = t1 - t0
    if span == 0:
        if record_times is None:
            return np.array(y0, dtype=float)
        return np.array([t0]), np.array([y0], dtype=float)
    nsteps = max(1, int(math.ceil(abs(span) / dt)))
    h = span / nsteps
    y = np.array(y0, dtype=float)
    if record_times is None:
        t = t0
        for _ in range(nsteps):
            y = rk4_step(f, t, y, h)
            t += h
        return y
    rec = list(record_times)
    out = []
    y_cur, t_cur = y, t0
    for tr in rec:
        sub = tr - t_cur
        m = max(0, int(round(abs(sub) / abs(h))))
        hh = sub / m if m else 0.0
        for _ in range(m):
            y_cur = rk4_step(f, t_cur, y_cur, hh)
            t_cur += hh
        out.append(y_cur.copy())
    return np.array(rec), np.array(out)


@dataclass
class Timeline:
    """Time-dependent operator A(t) defined on a hull [times[0], times[-1]].

    Built either from stored matrices (linear interpolation, exact at nodes)
    or from a model trajectory evaluated through the model's Jacobian.
    """

    times: np.ndarray
    _matrices: np.ndarray | None = None
    _model: object | None = None
    _states: np.ndarray | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if len(self.times) > 1 and np.any(np.diff(self.times) <= 0):
            raise ValueError("timeline times must be strictly increasing")

    @staticmethod
    def autonomous(A, t_min: float = -1e6, t_max: float = 1e6) -> "Timeline":
        M = _as_matrix(A)
        return Timeline(np.array([t_min, t_max]),
                        _matrices=np.array([M, M]))

    @staticmethod
    def from_matrices(times, matrices) -> "Timeline":
        mats = np.asarray(matrices, dtype=float)
        return Timeline(np.asarray(times, dtype=float), _matrices=mats)

    @staticmethod
    def from_orbit(model, orbit: OrbitGrid) -> "Timeline":
        return Timeline(orbit.times.copy(), _model=model,
                        _states=orbit.states.copy())

    @property
    def hull(self):
        return float(self.times[0]), float(self.times[-1])

    def _interp_states(self, t: float) -> np.ndarray:
        out = np.empty(self._states.shape[1])
        for k in range(self._states.shape[1]):
            out[k] = np.interp(t, self.times, self._states[:, k])
        return out

    def operator_at(self, t: float) -> np.ndarray:
        lo, hi = self.hull
        if t < lo - 1e-9 or t > hi + 1e-9:
            raise ValueError(f"time {t} outside timeline hull [{lo}, {hi}]")
        t = min(max(t, lo), hi)
        if self._matrices is not None:
            n = self._matrices.shape[1]
            out = np.empty((n, n))
            for i in range(n):
                for j in range(n):
                    out[i, j] = np.interp(t, self.times,
                                          self._matrices[:, i, j])
            return out
        return self._model.jacobian(self._interp_states(t))


def evolve(tl: Timeline, v0, t0: float, t1: float, dt: float) -> np.ndarray:
    """Propagate v' = A(t)v from t0 to t1 (both directions) by RK4."""
    lo, hi = tl.hull
    for t in (t0, t1):
        if t < lo - 1e-9 or t > hi + 1e-9:
            raise ValueError(f"time {t} outside timeline hull [{lo}, {hi}]")
    v = as_state(v0)
    return integrate_rk4(lambda t, y: tl.operator_at(t) @ y, v, t0, t1, dt)


def transition_matrix(tl: Timeline, t0: float, t1: float, dt: float) -> np.ndarray:
    """U(t1, t0) obtained by integrating the matrix equation Y' = A(t)Y."""
    lo, hi = tl.hull
    for t in (t0, t1):
        if t < lo - 1e-9 or t > hi + 1e-9:
            raise ValueError(f"time {t} outside timeline hull [{lo}, {hi}]")
    n = tl.operator_at(t0).shape[0]

    def f(t, yflat):
        return (tl.operator_at(t) @ yflat.reshape(n, n)).reshape(-1)

    out = integrate_rk4(f, np.eye(n).reshape(-1), t0, t1, dt)
    return out.reshape(n, n)


def growth_bound_check(tl: Timeline, splitting: SpectralSplitting,
                       samples: Sequence[tuple[float, float]],
                       C0: float = 1.0, dt: float = 1e-3) -> dict:
    """Verify block growth bounds ||Pi U(t,t0) Pi|| <= C0^2 e^(rate*(t-t0)+corr).

    The correction term is C0^2 * integral of |v'| along the stored trajectory
    between t0 and t (zero for autonomous timelines).  Plus blocks are checked
    on backward samples (t <= t0) at rate lambda_plus, rest blocks on forward
    samples at rate rest_max_re.  Report-only: returns per-sample ratios and
    the worst one.
    """
    P_plus = splitting.projection.projector_plus
    P_rest = splitting.projection.projector_rest
    if tl._states is not None:
        deriv = np.gradient(tl._states, tl.times, axis=0)
        dnorm = np.linalg.norm(deriv, axis=1)
    else:
        dnorm = None

    def correction(ta, tb):
        if dnorm is None:
            return 0.0
        lo, hi = min(ta, tb), max(ta, tb)
        mask = (tl.times >= lo - 1e-12) & (tl.times <= hi + 1e-12)
        if mask.sum() < 2:
            return 0.0
        return C0 ** 2 * float(np.trapezoid(dnorm[mask], tl.times[mask]))

    rows = []
    worst = 0.0
    for (t, t0) in samples:
        U = transition_matrix(tl, t0, t, dt)
        corr = correction(t0, t)
        if t <= t0 and splitting.dim_plus > 0:
            norm = np.linalg.norm(P_plus @ U @ P_plus, 2)
            bound = C0 ** 2 * math.exp(splitting.lambda_plus * (t - t0) + corr)
            ratio = norm / bound
            rows.append({"t": t, "t0": t0, "block": "+", "norm": norm,
                         "bound": bound, "ratio": ratio})
            worst = max(worst, ratio)
        if t >= t0 and splitting.dim_plus < splitting.dim:
            norm = np.linalg.norm(P_rest @ U @ P_rest, 2)
            bound = C0 ** 2 * math.exp(splitting.rest_max_re * (t - t0) + corr)
            ratio = norm / bound
            rows.append({"t": t, "t0": t0, "block": "rest", "norm": norm,
                         "bound": bound, "ratio": ratio})
            worst = max(worst, ratio)
    return {"samples": rows, "worst_ratio": worst}


def metric_variation_bound(L_path: Sequence[np.ndarray],
                           times: Sequence[float] | None = None) -> dict:
    """Discrete metric-variation factor l(t0,t1) and its exponential bound.

    direct: product over consecutive nodes of sup_v |v|_{L_{j+1}} / |v|_{L_j}
    (the largest value over all node subsequences, by submultiplicativity).
    bound: exp(0.5 * C_L^2 * sum ||L_{j+1}-L_j||) with C_L the equivalence
    constant along the path.  Asserts direct <= bound*(1+1e-6).
    """
    mats = [np.asarray(L, dtype=float) for L in L_path]
    if len(mats) < 2:
        raise ValueError("need at least two metric samples")
    eigs_all = []
    for L in mats:
        ev = np.linalg.eigvalsh(0.5 * (L + L.T))
        if ev.min() <= 0:
            raise ValueError("non-positive-definite metric sample")
        eigs_all.append(ev)
    CL2 = max(max(ev.max(), 1.0 / ev.min(), 1.0) for ev in eigs_all)
    direct = 1.0
    total_var = 0.0
    for La, Lb in zip(mats[:-1], mats[1:]):
        g2 = sla.eigh(0.5 * (Lb + Lb.T), 0.5 * (La + La.T),
                      eigvals_only=True).max()
        direct *= math.sqrt(g2)
        total_var += np.linalg.norm(Lb - La, 2)
    bound = math.exp(0.5 * CL2 * total_var)
    if direct > bound * (1 + 1e-6):
        raise AssertionError(
            f"discrete l = {direct} exceeds bound {bound}")
    return {"direct": direct, "bound": bound, "CL2": CL2}


def picard_solve(model, v0, T: float, dt: float, max_iter: int = 40,
                 tol: float = 1e-10) -> tuple[OrbitGrid, dict]:
    """Fixed point of v(t) = U(t,0)v0 + int_0^t U(t,s) f(v(s)) ds on [0, T].

    Each sweep freezes A(t) = DF(v_prev(t)) along the previous iterate and
    integrates the linear system v' = A(t)v + f(v_prev(t)) with
    f(v) = F(v) - DF(v)v.  Diagnostics report the measured per-iteration
    contraction factor and the discrepancy against a direct RK4 reference.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    v0 = as_state(v0, model.dimension)
    m = max(2, int(round(T / dt)) + 1)
    times = np.linspace(0.0, T, m)
    h = times[1] - times[0]
    states = np.tile(v0, (m, 1))
    ratios: list[float] = []
    prev_inc = None
    n_bad = 0
    iterations = 0
    for it in range(max_iter):
        iterations = it + 1
        A_nodes = [model.jacobian(states[j]) for j in range(m)]
        g_nodes = [model.vector_field(states[j]) - A_nodes[j] @ states[j]
                   for j in range(m)]
        new = np.empty_like(states)
        new[0] = v0
        for j in range(m - 1):
            Am = 0.5 * (A_nodes[j] + A_nodes[j + 1])
            gm = 0.5 * (g_nodes[j] + g_nodes[j + 1])
            y = new[j]
            k1 = A_nodes[j] @ y + g_nodes[j]
            k2 = Am @ (y + 0.5 * h * k1) + gm
            k3 = Am @ (y + 0.5 * h * k2) + gm
            k4 = A_nodes[j + 1] @ (y + h * k3) + g_nodes[j + 1]
            new[j + 1] = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        inc = float(np.max(np.linalg.norm(new - states, axis=1)))
        states = new
        if prev_inc is not None and prev_inc > 0:
            ratio = inc / prev_inc
            ratios.append(ratio)
            n_bad = n_bad + 1 if ratio >= 1.0 else 0
            if n_bad >= 3:
                raise RuntimeError("no contraction at this T")
        prev_inc = inc
        if inc <= tol:
            break
    orbit = OrbitGrid(times, states)
    ref = integrate_rk4(lambda t, y: model.vector_field(y), v0, 0.0, T,
                        min(h, dt) / 2)
    rk4_diff = float(np.linalg.norm(states[-1] - ref))
    factor = max(ratios) if ratios else 0.0
    return orbit, {"contraction_factor": factor, "iterations": iterations,
                   "rk4_discrepancy": rk4_diff, "final_increment": prev_inc}


def variational_flow(model, orbit: OrbitGrid, dt: float,
                     residual_tol: float | None = None) -> np.ndarray:
    """Integrate the matrix linearization U' = DF(u(t))U, U(first)=I, along
    an orbit, returning U at every grid node (shape m x n x n).

    The orbit is validated by the centered-difference trajectory residual,
    whose natural size is O(grid_dt^2); residual_tol defaults to that scale.
    """
    m, n = orbit.states.shape
    if m < 3:
        raise ValueError("orbit too short for a variational flow")
    gdt = orbit.dt
    scale = max(1.0, float(np.abs(orbit.states).max()))
    if residual_tol is None:
        fmax = max(np.linalg.norm(model.vector_field(orbit.states[j]))
                   for j in range(m))
        residual_tol = 10.0 * gdt ** 2 * max(fmax, 1.0) * scale + 1e-9
    deriv = np.gradient(orbit.states, orbit.times, axis=0)
    worst = 0.0
    for j in range(1, m - 1):
        worst = max(worst, float(np.linalg.norm(
            deriv[j] - model.vector_field(orbit.states[j]))))
    if worst > residual_tol:
        raise ValueError(
            f"not a trajectory: residual {worst:.3e} > {residual_tol:.3e}")

    tl = Timeline.from_orbit(model, orbit)

    def f(t, yflat):
        return (tl.operator_at(t) @ yflat.reshape(n, n)).reshape(-1)

    _, flat = integrate_rk4(f, np.eye(n).reshape(-1), orbit.times[0],
                            orbit.times[-1], dt, record_times=orbit.times)
    return flat.reshape(m, n, n)
