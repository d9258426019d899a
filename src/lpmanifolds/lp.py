"""Lyapunov-Perron construction of local invariant manifolds.

The integral operator acts on backward orbits v(t), t in [-T_max, 0]:

    v_+(t) = U_+(t,0) v_{0+} + int_0^t U_+(t,s) f_+(v(s)) ds,
    v_-(t) = int_{-T_max}^t U_-(t,s) f_-(v(s)) ds   (+ analytic tail bound),

whose fixed point gives the manifold value h(v_{0+}) = v_-(0).  Semigroup
factors are per-step matrix exponentials with exponential-trapezoid (phi
function) weights on the autonomous split, or RK4 sweeps when the block
operators vary along the iterate (quasilinearized route).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg as sla

from .graded import NormLadder, OrbitGrid, as_state, graded_norm, weighted_orbit_norm
from .linalg import SpectralSplitting, integrate_rk4
from .models import ModelSystem, custom_model
from .oracles import finite_difference_jacobian

__all__ = [
    "NoContractionError",
    "LpConfig",
    "SplitPieces",
    "LpResult",
    "ManifoldGraph",
    "ContractionBudget",
    "split_field",
    "quasilinearize",
    "QuasiTransform",
    "reversed_model",
    "lp_grid",
    "lp_apply",
    "lp_solve",
    "build_manifold_graph",
    "contraction_budget",
    "invariance_residual",
    "decay_rate_fit",
    "lp_variational",
]


class NoContractionError(RuntimeError):
    pass


@dataclass
class LpConfig:
    """Parameters of the Lyapunov-Perron iteration.

    lam must lie strictly inside the dichotomy gap (rest_max_re, lambda_plus)
    of the splitting; the fixed-point increment is measured in the
    exponentially weighted norm at level r-1 and rate lam.
    """

    lam: float
    T_max: float
    dt: float
    eps: float
    max_iter: int = 60
    tol: float = 1e-9
    r: float = 1.0

    def __post_init__(self):
        if not (0 < self.dt < self.T_max):
            raise ValueError("need 0 < dt < T_max")
        if self.eps <= 0:
            raise ValueError("eps must be positive")


def lp_grid(cfg: LpConfig) -> np.ndarray:
    m = int(round(cfg.T_max / cfg.dt)) + 1
    return np.linspace(-cfg.T_max, 0.0, m)


def _phi_matrices(A: np.ndarray, h: float):
    """(e^{hA}, psi1(hA), psi2(hA)) via one augmented matrix exponential."""
    d = A.shape[0]
    if d == 0:
        z = np.zeros((0, 0))
        return z, z, z
    M = np.zeros((3 * d, 3 * d))
    M[:d, :d] = h * A
    M[:d, d:2 * d] = np.eye(d)
    M[d:2 * d, 2 * d:] = np.eye(d)
    E = sla.expm(M)
    return E[:d, :d], E[:d, d:2 * d], E[:d, 2 * d:]


@dataclass
class SplitPieces:
    """Autonomous block-diagonal linear parts and the superlinear remainder.

    Coordinates: y = Binv @ (u - equilibrium), with the first d_plus entries
    spanning the unstable subspace.  f_split returns the remainder
    Binv (F(eq + B y) - A0 B y), which vanishes to second order at 0;
    A0 = DF(equilibrium) is computed once and kept.
    """

    model: ModelSystem
    splitting: SpectralSplitting
    B: np.ndarray
    Binv: np.ndarray
    A_plus: np.ndarray
    A_rest: np.ndarray
    d_plus: int
    autonomous: bool = True
    # quasilinear route: block operators and remainder evaluated along states
    blocks_at: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None
    remainder_at: Callable[[np.ndarray], np.ndarray] | None = None
    _cache: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.B.shape[0]

    @property
    def d_rest(self) -> int:
        return self.dim - self.d_plus

    def f_split(self, Y: np.ndarray) -> np.ndarray:
        return self.remainder_and_field(Y)[0]

    def remainder_and_field(
            self, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """(f_split(Y), F(to_ambient(Y))); the ambient field is the one the
        remainder is built from, and None on the quasilinear route."""
        Y2 = np.atleast_2d(Y)
        if not self.autonomous:
            out = np.array([self.remainder_at(y) for y in Y2])
            return (out if Y.ndim > 1 else out[0]), None
        if "A0" not in self._cache:
            self._cache["A0"] = self.model.jacobian(self.model.equilibrium)
        A0 = self._cache["A0"]
        field = self.model.field_many(self.to_ambient(Y2))
        out = (field - (Y2 @ self.B.T) @ A0.T) @ self.Binv.T
        if Y.ndim > 1:
            return out, field
        return out[0], field[0]

    def to_ambient(self, Y: np.ndarray) -> np.ndarray:
        return np.atleast_2d(Y) @ self.B.T + self.model.equilibrium[None, :]

    def propagators(self, h: float):
        key = ("prop", round(h, 15))
        if key not in self._cache:
            Em, p1m, p2m = _phi_matrices(-self.A_plus, h)
            Ep, p1p, p2p = _phi_matrices(self.A_rest, h)
            self._cache[key] = (Em, p1m, p1m - p2m, Ep, p1p, p2p)
        return self._cache[key]

    def rest_growth_constant(self, T: float) -> float:
        """max over s of ||e^{s A_rest}|| e^{-rest_max_re * s} on [0, T]."""
        key = ("crest", round(T, 12))
        if key not in self._cache:
            if self.d_rest == 0:
                self._cache[key] = 1.0
            else:
                rate = self.splitting.rest_max_re
                c = 1.0
                for s in np.linspace(0.0, T, 25):
                    c = max(c, np.linalg.norm(sla.expm(s * self.A_rest), 2)
                            * math.exp(-rate * s))
                self._cache[key] = c
        return self._cache[key]


def split_field(model: ModelSystem, splitting: SpectralSplitting,
                df0_tol: float = 1e-6) -> SplitPieces:
    """Semilinear realization: autonomous blocks of A(0) plus remainder f.

    f(y) = F(y) - A(0) y has f(0) = 0 and Df(0) = 0; the latter is checked by
    central finite differences and refused if it exceeds df0_tol.
    """
    Bp = splitting.projection.basis_plus
    Br = splitting.projection.basis_rest
    B = np.hstack([Bp, Br])
    Binv = np.linalg.inv(B)
    A0 = model.jacobian(model.equilibrium)
    Ahat = Binv @ A0 @ B
    d = Bp.shape[1]
    off = 0.0
    if 0 < d < B.shape[0]:
        off = max(np.linalg.norm(Ahat[:d, d:]), np.linalg.norm(Ahat[d:, :d]))
        if off > 1e-8 * max(np.linalg.norm(A0), 1.0):
            raise ValueError("splitting does not block-diagonalize A(0)")
    A_plus = Ahat[:d, :d]
    A_rest = Ahat[d:, d:]
    pieces = SplitPieces(model=model, splitting=splitting, B=B, Binv=Binv,
                         A_plus=A_plus, A_rest=A_rest, d_plus=d)

    def f_amb(y):
        u = model.equilibrium + y
        return model.vector_field(u) - A0 @ y

    Df0 = finite_difference_jacobian(f_amb, np.zeros(model.dimension), 1e-6)
    if np.linalg.norm(Df0) > df0_tol:
        raise ValueError(
            f"splitting inconsistent with Jacobian: ||Df(0)|| = "
            f"{np.linalg.norm(Df0):.3e}")
    return pieces


def reversed_model(model: ModelSystem) -> ModelSystem:
    """Time-reversed system; its unstable manifold is the stable manifold."""
    return ModelSystem(
        name=model.name + "_reversed", dimension=model.dimension,
        vector_field=lambda u: -model.vector_field(u),
        jacobian=lambda u: -model.jacobian(u),
        equilibrium=model.equilibrium, ladder=model.ladder,
        vector_field_many=(None if model.vector_field_many is None
                           else (lambda S: -model.vector_field_many(S))),
        suggested_gap=model.suggested_gap)


# ---------------------------------------------------------------------------
# quasilinearizing transform

@dataclass
class QuasiTransform:
    """Change of variables v = B(u) = sum_blocks sigma_b Pi_b (F(u) - shift_b u).

    Shifts are omega_plus - 1 on the unstable block and omega_minus + 1 on the
    complement; u is the deviation from the equilibrium.  The transformed
    evolution v' = DB(u) F(u) is quasilinear with block operators equal to the
    diagonal blocks of the full Jacobian and a remainder with Df(0) = 0.
    """

    model: ModelSystem
    splitting: SpectralSplitting
    shift_plus: float
    shift_rest: float
    sigma_plus: float
    transformed: ModelSystem
    pieces: SplitPieces
    db0_condition: float
    invert_B: Callable[[np.ndarray], np.ndarray]
    bmap: Callable[[np.ndarray], np.ndarray]


def quasilinearize(model: ModelSystem, splitting: SpectralSplitting,
                   omega_plus: float | None = None,
                   omega_minus: float | None = None,
                   sigma_scale: float = 1.0,
                   newton_tol: float = 1e-12,
                   newton_max_iter: int = 60) -> QuasiTransform:
    om_p = splitting.omega_plus if omega_plus is None else omega_plus
    om_m = splitting.omega_minus if omega_minus is None else omega_minus
    sp, sm = om_p - 1.0, om_m + 1.0
    Pp = splitting.projection.projector_plus
    Pr = splitting.projection.projector_rest
    eq = model.equilibrium
    n = model.dimension

    def bmap(u_dev):
        Fu = model.vector_field(eq + u_dev)
        return (sigma_scale * Pp @ (Fu - sp * u_dev)
                + Pr @ (Fu - sm * u_dev))

    def dbmat(u_dev):
        A = model.jacobian(eq + u_dev)
        return (sigma_scale * Pp @ (A - sp * np.eye(n))
                + Pr @ (A - sm * np.eye(n)))

    DB0 = dbmat(np.zeros(n))
    cond = float(np.linalg.cond(DB0))
    if not np.isfinite(cond) or cond > 1e12:
        raise ValueError(
            f"DB(0) numerically singular (condition number {cond:.3e}); "
            "choose different omega shifts")

    def invert_B(v):
        v = as_state(v, n)
        u = np.zeros(n)
        res = bmap(u) - v
        rnorm = np.linalg.norm(res)
        for _ in range(newton_max_iter):
            if rnorm <= newton_tol:
                return u
            step = np.linalg.solve(dbmat(u), -res)
            lam = 1.0
            while lam > 1e-8:
                cand = u + lam * step
                rc = bmap(cand) - v
                if np.linalg.norm(rc) < rnorm:
                    u, res, rnorm = cand, rc, np.linalg.norm(rc)
                    break
                lam *= 0.5
            else:
                raise RuntimeError(
                    f"Newton stagnation inverting B (residual {rnorm:.3e})")
        if rnorm > newton_tol:
            raise RuntimeError(
                f"Newton failed inverting B (residual {rnorm:.3e})")
        return u

    def G(v):
        u = invert_B(v)
        return dbmat(u) @ model.vector_field(eq + u)

    A_v0 = DB0 @ model.jacobian(eq) @ np.linalg.inv(DB0)

    def G_jac(v):
        if np.linalg.norm(v) < 1e-14:
            return A_v0
        return finite_difference_jacobian(G, v, 1e-6)

    tmodel = custom_model(model.name + "_quasilinearized", G, G_jac,
                          np.zeros(n), ladder=model.ladder)

    # the transformed system keeps the original projections; its blocks are
    # the diagonal blocks of the full state-dependent Jacobian
    base = split_field(model, splitting)
    d = base.d_plus

    def blocks_at(y):
        v_amb = base.B @ y
        u = invert_B(v_amb)
        Afull = base.Binv @ model.jacobian(eq + u) @ base.B
        return Afull[:d, :d], Afull[d:, d:]

    def remainder_at(y):
        v_amb = base.B @ y
        u = invert_B(v_amb)
        g = base.Binv @ (dbmat(u) @ model.vector_field(eq + u))
        Afull = base.Binv @ model.jacobian(eq + u) @ base.B
        g[:d] -= Afull[:d, :d] @ y[:d]
        g[d:] -= Afull[d:, d:] @ y[d:]
        return g

    qpieces = SplitPieces(
        model=tmodel, splitting=splitting, B=base.B, Binv=base.Binv,
        A_plus=base.A_plus, A_rest=base.A_rest, d_plus=d, autonomous=False,
        blocks_at=blocks_at, remainder_at=remainder_at)

    return QuasiTransform(
        model=model, splitting=splitting, shift_plus=sp, shift_rest=sm,
        sigma_plus=sigma_scale, transformed=tmodel, pieces=qpieces,
        db0_condition=cond, invert_B=invert_B, bmap=bmap)


# ---------------------------------------------------------------------------
# the integral operator and its fixed point

def lp_apply(pieces: SplitPieces, cfg: LpConfig, v0_plus: np.ndarray,
             Y: np.ndarray) -> tuple[np.ndarray, float]:
    """One application of the Lyapunov-Perron operator on the grid.

    Returns the new split-coordinate orbit and the analytic bound on the
    truncated tail of the complement integral.
    """
    return _lp_sweep(pieces, cfg, as_state(v0_plus, pieces.d_plus), Y,
                     pieces.f_split(Y))


def _lp_sweep(pieces: SplitPieces, cfg: LpConfig, v0_plus: np.ndarray,
              Y: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, float]:
    """lp_apply with the remainder g = f_split(Y) already evaluated."""
    if not np.all(np.isfinite(g)):
        raise FloatingPointError("non-finite remainder evaluation in lp_apply")
    times = lp_grid(cfg)
    m = len(times)
    h = times[1] - times[0]
    d = pieces.d_plus
    gp, gr = g[:, :d], g[:, d:]
    new = np.empty_like(Y)

    if pieces.autonomous:
        Em, p1m, p12m, Ep, p1p, p2p = pieces.propagators(h)
        # unstable part backward from t = 0
        P = v0_plus.copy()
        S = np.zeros(d)
        new[m - 1, :d] = P + S
        for j in range(m - 2, -1, -1):
            P = Em @ P
            S = Em @ S - h * (p1m @ gp[j] + p12m @ (gp[j + 1] - gp[j]))
            new[j, :d] = P + S
        # complement forward from t = -T_max
        R = np.zeros(pieces.d_rest)
        new[0, d:] = R
        for j in range(m - 1):
            R = Ep @ R + h * (p1p @ gr[j] + p2p @ (gr[j + 1] - gr[j]))
            new[j + 1, d:] = R
    else:
        blocks = [pieces.blocks_at(Y[j]) for j in range(m)]
        Ap = [b[0] for b in blocks]
        Ar = [b[1] for b in blocks]
        yp = np.empty((m, d))
        yp[m - 1] = v0_plus
        for j in range(m - 2, -1, -1):
            A0_, A1_ = Ap[j + 1], Ap[j]
            Am = 0.5 * (A0_ + A1_)
            g0, g1 = gp[j + 1], gp[j]
            gm = 0.5 * (g0 + g1)
            y = yp[j + 1]
            hh = -h
            k1 = A0_ @ y + g0
            k2 = Am @ (y + 0.5 * hh * k1) + gm
            k3 = Am @ (y + 0.5 * hh * k2) + gm
            k4 = A1_ @ (y + hh * k3) + g1
            yp[j] = y + (hh / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        yr = np.empty((m, pieces.d_rest))
        yr[0] = 0.0
        for j in range(m - 1):
            A0_, A1_ = Ar[j], Ar[j + 1]
            Am = 0.5 * (A0_ + A1_)
            g0, g1 = gr[j], gr[j + 1]
            gm = 0.5 * (g0 + g1)
            y = yr[j]
            k1 = A0_ @ y + g0
            k2 = Am @ (y + 0.5 * h * k1) + gm
            k3 = Am @ (y + 0.5 * h * k2) + gm
            k4 = A1_ @ (y + h * k3) + g1
            yr[j + 1] = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        new[:, :d] = yp
        new[:, d:] = yr

    if pieces.d_rest and pieces.autonomous:
        c_rest = pieces.rest_growth_constant(cfg.T_max)
        denom = cfg.lam - pieces.splitting.rest_max_re
        tail = c_rest * float(np.linalg.norm(gr[0])) / max(denom, 1e-12)
    elif pieces.d_rest:
        denom = cfg.lam - pieces.splitting.rest_max_re
        tail = float(np.linalg.norm(gr[0])) / max(denom, 1e-12)
    else:
        tail = 0.0
    return new, tail


@dataclass
class LpResult:
    base_point: np.ndarray
    h_value: np.ndarray
    orbit: OrbitGrid          # ambient coordinates (absolute states)
    Y: np.ndarray             # split coordinates of the deviation
    diagnostics: dict


def _orbit_from_Y(pieces: SplitPieces, times: np.ndarray,
                  Y: np.ndarray) -> OrbitGrid:
    return OrbitGrid(times, pieces.to_ambient(Y))


def _deviation_weighted_norm(pieces: SplitPieces, times, Ydiff, lam, r):
    amb = np.atleast_2d(Ydiff) @ pieces.B.T
    orbit = OrbitGrid(times, amb)
    return weighted_orbit_norm(orbit, lam, pieces.model.ladder, r)


def lp_solve(pieces: SplitPieces, cfg: LpConfig,
             v0_plus: np.ndarray) -> LpResult:
    """Iterate the Lyapunov-Perron operator from the zero orbit to its fixed
    point; h(v0_plus) is the complement part of v(0).

    Raises NoContractionError when the weighted-norm increments fail to
    contract for three consecutive sweeps.
    """
    sp = pieces.splitting
    lo, hi = sp.rest_max_re, sp.lambda_plus
    if not (lo < cfg.lam < hi):
        raise ValueError(
            f"lambda={cfg.lam} outside the dichotomy gap ({lo}, {hi})")
    d = pieces.d_plus
    v0_plus = as_state(v0_plus, d)
    if np.linalg.norm(v0_plus) > cfg.eps * (1 + 1e-12):
        raise ValueError("base point outside the eps-ball")
    times = lp_grid(cfg)
    m = len(times)
    Y = np.zeros((m, pieces.dim))
    rlow = max(cfg.r - 1.0, 0.0)
    ratios: list[float] = []
    prev_inc = None
    n_bad = 0
    tail = 0.0
    iterations = 0
    for it in range(cfg.max_iter):
        iterations = it + 1
        Ynew, tail = lp_apply(pieces, cfg, v0_plus, Y)
        inc = _deviation_weighted_norm(pieces, times, Ynew - Y, cfg.lam, rlow)
        Y = Ynew
        if prev_inc is not None and prev_inc > 0:
            ratio = inc / prev_inc
            ratios.append(ratio)
            n_bad = n_bad + 1 if ratio >= 1.0 else 0
            if n_bad >= 3 and inc > cfg.tol:
                raise NoContractionError(
                    "no contraction: shrink eps or adjust lambda")
        prev_inc = inc
        if inc <= cfg.tol:
            break
    else:
        if prev_inc is not None and prev_inc > cfg.tol:
            raise NoContractionError(
                f"fixed point not reached in {cfg.max_iter} sweeps "
                f"(last increment {prev_inc:.3e})")

    # fixed-point residual: one more sweep, measured in the same norm; its
    # remainder and ambient field also serve the two checks below
    g, field = pieces.remainder_and_field(Y)
    Ychk, _ = _lp_sweep(pieces, cfg, v0_plus, Y, g)
    fp_res = _deviation_weighted_norm(pieces, times, Ychk - Y, cfg.lam, rlow)

    orbit = _orbit_from_Y(pieces, times, Y)
    # centered-difference trajectory residual against the full field
    deriv = np.gradient(orbit.states, times, axis=0)
    if field is None:
        field = pieces.model.field_many(orbit.states)
    traj_res = float(np.max(np.linalg.norm(
        (deriv - field)[1:-1], axis=1))) if m > 2 else 0.0

    # quadrature error budget from measured second differences of f
    if m > 2:
        second = np.linalg.norm(g[2:] - 2 * g[1:-1] + g[:-2], axis=1)
        quad_budget = float((times[1] - times[0]) * second.sum() / 12.0)
    else:
        quad_budget = 0.0
    h_val = Y[-1, d:]
    contraction = max(ratios) if ratios else 0.0
    diag = {
        "iterations": iterations,
        "contraction_factor": contraction,
        "contraction_ratios": ratios,
        "fp_residual": fp_res,
        "tail_bound": tail,
        "quad_budget": quad_budget,
        "trajectory_residual": traj_res,
        "error_budget": cfg.tol + tail + quad_budget,
    }
    return LpResult(base_point=v0_plus, h_value=h_val, orbit=orbit, Y=Y,
                    diagnostics=diag)


def decay_rate_fit(orbit: OrbitGrid, ladder: NormLadder, r: float,
                   floor: float = 1e-12) -> tuple[float, float]:
    """Least-squares slope of log ||v(t)||_r over the window where the norm
    exceeds the floor; returns (lambda_fit, R^2)."""
    w = ladder.weights(r)
    norms = np.sqrt(np.sum((orbit.states * w[None, :]) ** 2, axis=1))
    if np.max(norms) <= 1e-300:
        raise ValueError("trivial orbit")
    mask = norms > floor
    if mask.sum() < 10:
        raise ValueError("orbit too short for a decay fit (need 10 nodes)")
    t = orbit.times[mask]
    y = np.log(norms[mask])
    A = np.vstack([t, np.ones_like(t)]).T
    coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope = float(coef[0])
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(res[0]) if len(res) else float(
        np.sum((y - A @ coef) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, r2


@dataclass
class ManifoldGraph:
    base_points: np.ndarray
    values: np.ndarray
    lambda_fit: np.ndarray
    r2: np.ndarray
    iterations: np.ndarray
    fp_residual: np.ndarray
    status: list[str]
    error_budget: np.ndarray
    diagnostics: dict

    @property
    def ok(self) -> np.ndarray:
        return np.array([s == "ok" for s in self.status])


def _ball_grid(d: int, eps: float, n_per_dim: int, seed: int = 0,
               n_random: int = 64) -> np.ndarray:
    if d == 1:
        return np.linspace(-eps, eps, n_per_dim).reshape(-1, 1)
    if d <= 3:
        axes = [np.linspace(-eps, eps, n_per_dim)] * d
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        keep = np.linalg.norm(pts, axis=1) <= eps * (1 + 1e-12)
        return pts[keep]
    # above tensor-grid dimension: seeded low-discrepancy samples in the ball
    from scipy.stats import qmc
    sampler = qmc.Sobol(d, scramble=True, seed=seed)
    cube = sampler.random(n_random) * 2.0 - 1.0
    keep = np.linalg.norm(cube, axis=1) <= 1.0
    return cube[keep] * eps


def build_manifold_graph(pieces: SplitPieces, cfg: LpConfig,
                         grid_spec: int | np.ndarray = 11,
                         seed: int = 0) -> ManifoldGraph:
    """Sample the manifold graph over a ball in the unstable coordinates.

    Samples are solved independently; failures are marked in the status
    column rather than aborting the graph.  Diagnostics carry the Lipschitz
    estimate at level r-1 and the tangency fit of ||h|| / ||v|| vs ||v||.
    """
    d = pieces.d_plus
    if isinstance(grid_spec, (int, np.integer)):
        pts = _ball_grid(d, cfg.eps, int(grid_spec), seed=seed)
    else:
        pts = np.atleast_2d(np.asarray(grid_spec, dtype=float))
    nsamp = pts.shape[0]
    dr = pieces.d_rest
    values = np.full((nsamp, dr), np.nan)
    lam_fit = np.full(nsamp, np.nan)
    r2 = np.full(nsamp, np.nan)
    iters = np.zeros(nsamp)
    fp_res = np.full(nsamp, np.nan)
    budget = np.full(nsamp, np.nan)
    status: list[str] = []
    results: list[LpResult | None] = []
    for i in range(nsamp):
        try:
            res = lp_solve(pieces, cfg, pts[i])
            values[i] = res.h_value
            iters[i] = res.diagnostics["iterations"]
            fp_res[i] = res.diagnostics["fp_residual"]
            budget[i] = res.diagnostics["error_budget"]
            if np.linalg.norm(pts[i]) > 0:
                dev = OrbitGrid(res.orbit.times,
                                res.orbit.states - pieces.model.equilibrium)
                try:
                    lam_fit[i], r2[i] = decay_rate_fit(
                        dev, pieces.model.ladder, cfg.r)
                except ValueError:
                    pass
            status.append("ok")
            results.append(res)
        except (NoContractionError, ValueError, RuntimeError,
                FloatingPointError) as exc:
            status.append(f"failed: {exc}")
            results.append(None)
    ok = np.array([s == "ok" for s in status])

    diagnostics: dict = {"results": results}
    if ok.sum() >= 2:
        rlow = max(cfg.r - 1.0, 0.0)
        Bp, Br = pieces.B[:, :d], pieces.B[:, d:]
        lip = 0.0
        idx = np.where(ok)[0]
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                i, j = idx[a], idx[b]
                dv = graded_norm(Bp @ (pts[i] - pts[j]),
                                 pieces.model.ladder, rlow)
                dh = graded_norm(Br @ (values[i] - values[j]),
                                 pieces.model.ladder, rlow)
                if dv > 1e-14:
                    lip = max(lip, dh / dv)
        diagnostics["lipschitz_low"] = lip
        vn = np.linalg.norm(pts[ok], axis=1)
        hn = np.linalg.norm(values[ok], axis=1)
        nz = vn > 1e-14
        if nz.sum() >= 2:
            x, y = vn[nz], hn[nz] / vn[nz]
            A = np.vstack([x, np.ones_like(x)]).T
            coef, *_ = np.linalg.lstsq(A, y, rcond=None)
            diagnostics["tangency_slope"] = float(coef[0])
            diagnostics["tangency_intercept"] = float(coef[1])
    return ManifoldGraph(base_points=pts, values=values, lambda_fit=lam_fit,
                         r2=r2, iterations=iters, fp_residual=fp_res,
                         status=status, error_budget=budget,
                         diagnostics=diagnostics)


@dataclass
class ContractionBudget:
    C0: float
    Cf: float
    k: float
    lambda_minus: float
    lambda_plus: float
    lam: float
    L1: float
    feasible_eps: float | None
    M0: float | None = None
    M1: float | None = None
    l: float | None = None


def contraction_budget(C0: float, Cf: float, k: float, lambda_minus: float,
                       lambda_plus: float, lam: float) -> ContractionBudget:
    """Explicit contraction constant L1 and the largest admissible ball.

    L1 = C0^{2(k+1)} Cf [1/(lam - lam_minus) + 1/(lam_plus - lam)].  When
    L1 < 1 the largest eps satisfying the step and contraction inequalities
    (with M0 = 2 C0^{2(k+1)}/(1-L1), l = (1+L1)/2, M1 = (C0+Cf) M0) is found
    by bisection; otherwise feasible_eps is None.
    """
    if not (lambda_minus < lam < lambda_plus):
        raise ValueError(
            f"lambda={lam} outside the gap ({lambda_minus}, {lambda_plus})")
    if C0 <= 0 or Cf < 0 or k <= 0:
        raise ValueError("constants must be positive (Cf may be zero)")
    Ck1 = C0 ** (2 * (k + 1))
    Ck = C0 ** (2 * k)
    L1 = Ck1 * Cf * (1.0 / (lam - lambda_minus) + 1.0 / (lambda_plus - lam))
    if L1 >= 1.0:
        return ContractionBudget(C0, Cf, k, lambda_minus, lambda_plus, lam,
                                 L1, None)
    M0 = 2.0 * Ck1 / (1.0 - L1)
    l = 0.5 * (1.0 + L1)
    M1 = (C0 + Cf) * M0
    gap_min = min(lambda_plus - lam, lam - lambda_minus)
    eps_step = gap_min / (2.0 * (k + 1) * Ck1 * M1)

    def feasible(eps: float) -> bool:
        sh1 = 2.0 * (k + 1) * Ck1 * M1 * eps
        if sh1 >= gap_min:
            return False
        t1 = Ck1 * Cf * (1.0 / (lam - lambda_minus - sh1)
                         + 1.0 / (lambda_plus - lam - sh1))
        if t1 > min(l, 0.5 * (1.0 + L1)):
            return False
        sh2 = 2.0 * k * Ck * M1 * eps
        if lam - lambda_minus - sh2 <= 0 or lambda_plus - lam - sh2 <= 0:
            return False
        num = Ck * (C0 * M0 * eps + Cf)
        t2 = num * (1.0 / (lam - lambda_minus - sh2)
                    + 1.0 / (lambda_plus - lam - sh2))
        return t2 <= l

    hi = eps_step * (1 - 1e-12)
    if feasible(hi):
        eps_star = hi
    else:
        lo, cur = 0.0, hi
        for _ in range(200):
            mid = 0.5 * (lo + cur)
            if feasible(mid):
                lo = mid
            else:
                cur = mid
        eps_star = lo
    return ContractionBudget(C0, Cf, k, lambda_minus, lambda_plus, lam, L1,
                             eps_star, M0=M0, M1=M1, l=l)


def invariance_residual(graph: ManifoldGraph, pieces: SplitPieces,
                        cfg: LpConfig, delta_t: float = 0.1,
                        dt_forward: float | None = None) -> dict:
    """Flow each graph sample forward by delta_t and re-solve the graph at the
    new base point; reports ||h(u_+(dt)) - u_-(dt)|| per sample."""
    if delta_t <= 0:
        raise ValueError("delta_t must be positive")
    model = pieces.model
    d = pieces.d_plus
    if dt_forward is None:
        A0 = model.jacobian(model.equilibrium)
        dt_forward = min(cfg.dt, 0.1 / max(np.linalg.norm(A0, 2), 1.0))
    residuals = []
    skipped = 0
    for i in range(graph.base_points.shape[0]):
        if graph.status[i] != "ok":
            skipped += 1
            residuals.append(np.nan)
            continue
        y0 = np.concatenate([graph.base_points[i], graph.values[i]])
        u0 = model.equilibrium + pieces.B @ y0
        u1 = integrate_rk4(lambda t, y: model.vector_field(y), u0, 0.0,
                           delta_t, dt_forward)
        y1 = pieces.Binv @ (u1 - model.equilibrium)
        base1 = y1[:d]
        if np.linalg.norm(base1) > cfg.eps:
            skipped += 1
            residuals.append(np.nan)
            continue
        try:
            res1 = lp_solve(pieces, cfg, base1)
        except (NoContractionError, ValueError, RuntimeError):
            skipped += 1
            residuals.append(np.nan)
            continue
        residuals.append(float(np.linalg.norm(res1.h_value - y1[d:])))
    arr = np.array(residuals)
    finite = arr[np.isfinite(arr)]
    return {"residuals": arr,
            "max_residual": float(finite.max()) if finite.size else 0.0,
            "skipped": skipped}


def lp_variational(base: LpResult, pieces: SplitPieces, cfg: LpConfig,
                   max_iter: int = 60, tol: float = 1e-10):
    """First derivative of the manifold orbit with respect to the base point.

    Solves the linear Lyapunov-Perron system for U^1(t) (columns = derivative
    directions) by the same quadrature; returns (U1 trajectory, Dq) where Dq
    is the complement block of U^1(0) -- the graph derivative at the base
    point.  At the equilibrium Dq = 0 exactly (tangency).
    """
    times = lp_grid(cfg)
    m = len(times)
    h = times[1] - times[0]
    d, dr, n = pieces.d_plus, pieces.d_rest, pieces.dim
    eq = pieces.model.equilibrium
    Adiag = np.zeros((n, n))
    Adiag[:d, :d] = pieces.A_plus
    Adiag[d:, d:] = pieces.A_rest
    # coupling along the base orbit: full Jacobian minus the frozen blocks
    Atil = np.empty((m, n, n))
    for j in range(m):
        Afull = pieces.Binv @ pieces.model.jacobian(
            base.orbit.states[j]) @ pieces.B
        Atil[j] = Afull - Adiag

    Em, p1m, p12m, Ep, p1p, p2p = pieces.propagators(h)
    V = np.zeros((m, n, d))
    # initial iterate: homogeneous unstable propagation of the identity
    V[m - 1, :d, :] = np.eye(d)
    for j in range(m - 2, -1, -1):
        V[j, :d, :] = Em @ V[j + 1, :d, :]

    prev = None
    for it in range(max_iter):
        G = np.einsum("jab,jbc->jac", Atil, V)
        Gp, Gr = G[:, :d, :], G[:, d:, :]
        Vn = np.zeros_like(V)
        P = np.eye(d)
        S = np.zeros((d, d))
        Vn[m - 1, :d, :] = P
        for j in range(m - 2, -1, -1):
            P = Em @ P
            S = Em @ S - h * (p1m @ Gp[j] + p12m @ (Gp[j + 1] - Gp[j]))
            Vn[j, :d, :] = P + S
        if dr:
            R = np.zeros((dr, d))
            for j in range(m - 1):
                R = Ep @ R + h * (p1p @ Gr[j] + p2p @ (Gr[j + 1] - Gr[j]))
                Vn[j + 1, d:, :] = R
        inc = float(np.max(np.exp(-cfg.lam * times)
                           * np.linalg.norm(Vn - V, axis=(1, 2))))
        V = Vn
        if prev is not None and inc > prev and inc > tol and it > 3:
            raise NoContractionError("variational LP system not contracting")
        prev = inc
        if inc <= tol:
            break
    Dq = V[m - 1, d:, :].copy()
    return V, Dq
