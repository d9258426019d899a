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

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg as sla

from .graded import (NormLadder, OrbitGrid, _row_norms,
                     _trajectory_residual, as_state)
from .linalg import (NoContractionError, SpectralSplitting, _check_stopping,
                     _contract, _contraction_factor, _positive_finite,
                     _scan_into, integrate_rk4, rk4_affine, scan_plan)
from .models import ModelSystem, _states

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
    "lp_apply",
    "lp_solve",
    "build_manifold_graph",
    "contraction_budget",
    "invariance_residual",
    "decay_rate_fit",
    "lp_variational",
]


# failures that mark one manifold sample as failed instead of aborting a
# graph; numpy's LinAlgError is a ValueError and NoContractionError a
# RuntimeError
_SAMPLE_FAILURES = (ValueError, RuntimeError, FloatingPointError)


@dataclass(frozen=True)
class LpConfig:
    """Parameters of the Lyapunov-Perron iteration.

    lam must lie strictly inside the dichotomy gap (rest_max_re, lambda_plus)
    of the splitting; lp_solve and lp_variational stop once an increment in
    the exponentially weighted norm at level r-1 and rate lam (_lp_norm) is
    at most tol, within max_iter sweeps.  T_max, dt and eps must be positive
    finite numbers, with dt < T_max, tol a finite number of at least 0, and
    r a finite number of at least 1.  The config is frozen and owns the grid
    of every sweep, built once per config: times, the round(T_max/dt) + 1
    nodes of linspace(-T_max, 0), read-only, and its step h.
    """

    lam: float
    T_max: float
    dt: float
    eps: float
    max_iter: int = 60
    tol: float = 1e-9
    r: float = 1.0

    def __post_init__(self):
        for name in ("T_max", "dt", "eps"):
            _positive_finite(name, getattr(self, name))
        if not self.dt < self.T_max:
            raise ValueError("need 0 < dt < T_max")
        _check_stopping(self.max_iter, self.tol)
        if not (math.isfinite(self.r) and self.r >= 1):
            raise ValueError(
                f"r must be a finite number of at least 1, got {self.r}")

    @functools.cached_property
    def times(self) -> np.ndarray:
        times = np.linspace(-self.T_max, 0.0, round(self.T_max / self.dt) + 1)
        times.flags.writeable = False
        return times

    @functools.cached_property
    def h(self) -> float:
        return float(self.times[1] - self.times[0])


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


@dataclass(frozen=True)
class SplitPieces:
    """Block-diagonal linear parts and the superlinear remainder.

    Coordinates: y = Binv @ (u - equilibrium), with the first d_plus entries
    spanning the unstable subspace.  f_split returns the remainder
    Binv (F(eq + B y) - A0 B y), which vanishes to second order at 0;
    A0 = DF(equilibrium) and F0 = F(equilibrium), one row, both taken by
    split_field (the quasilinear route keeps the direct model's A0 and F0,
    the values its inversion starts from).  sweep_inputs is the one method
    that reads the route: fixed blocks A_plus, A_rest on the autonomous
    split, node blocks from frozen_along on the quasilinear route.
    The value is frozen.  __post_init__ derives the rest, and
    dataclasses.replace derives it again: B, Binv and d_plus are the
    splitting's; A_plus and A_rest are the diagonal blocks of Binv A0 B,
    whose other blocks must be within 1e-8 max(||A0||_F, 1) of 0
    (ValueError otherwise); _BT, _A0T and _BinvT are the contiguous
    transposes the row products take (a transposed view takes NumPy's
    slower strided path); _rest is f_split of the equilibrium on the
    autonomous split, the forcing of every node in the first sweep of the
    zero orbit.  The cache holds the scan plans and growth
    constants, one per step or horizon; it is not a field of the
    constructor, so replace starts a fresh one.
    """

    model: ModelSystem
    splitting: SpectralSplitting
    A0: np.ndarray
    F0: np.ndarray
    # quasilinear route: sweep_inputs along split states Y (rows) with
    # ambient image BY = Y B^T, from one inversion of B per state
    frozen_along: Callable[..., tuple] | None = None
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        sp, d = self.splitting, self.splitting.dim_plus
        Ahat = sp.Binv @ self.A0 @ sp.B
        if 0 < d < sp.B.shape[0]:
            off = max(np.linalg.norm(Ahat[:d, d:]),
                      np.linalg.norm(Ahat[d:, :d]))
            if off > 1e-8 * max(np.linalg.norm(self.A0), 1.0):
                raise ValueError("splitting does not block-diagonalize A(0)")
        c = np.ascontiguousarray
        for name, value in dict(
                B=sp.B, Binv=sp.Binv, d_plus=d, A_plus=Ahat[:d, :d],
                A_rest=Ahat[d:, d:], _BT=c(sp.B.T), _A0T=c(self.A0.T),
                _BinvT=c(sp.Binv.T)).items():
            object.__setattr__(self, name, value)
        # f_split of the equilibrium from F0, on two copies of the row: one
        # row goes to gemv, whose sums round otherwise than a grid's gemm,
        # and the first sweep must keep the bits of a grid's evaluation
        two = np.repeat(self.F0[None], 2, axis=0)
        object.__setattr__(self, "_rest",
                           self._remainder(np.zeros_like(two), two)[0])

    @property
    def autonomous(self) -> bool:
        """Fixed blocks A_plus, A_rest; False on the quasilinear route,
        whose node blocks come from frozen_along."""
        return self.frozen_along is None

    @property
    def dim(self) -> int:
        return self.B.shape[0]

    @property
    def d_rest(self) -> int:
        return self.dim - self.d_plus

    def f_split(self, Y: np.ndarray) -> np.ndarray:
        """The remainder at split states Y (..., n)."""
        Y = np.asarray(Y, dtype=float)
        rows = Y.reshape(-1, self.dim)
        g = self.sweep_inputs(rows, rows @ self._BT)[0]
        return g.reshape(Y.shape)

    def sweep_inputs(self, Y: np.ndarray, BY: np.ndarray,
                     state: tuple | None = None) -> tuple:
        """(g, field, blocks, state) along the split states Y (rows), whose
        ambient image Y B^T is BY: the remainder g = f_split(Y), the ambient
        field it is built from, the node blocks (A_plus, A_rest) and the
        inversion state of B.

        On the autonomous route the field is the model's at eq + BY, and
        blocks and state are None: the blocks are the fixed ones.  On the
        quasilinear route it is frozen_along, which inverts B at BY, one
        inversion per row, starting from state, the state an earlier call
        returned for the same rows, or cold at u = 0.  The state is
        consumed: the returned state holds its arrays, updated in place.
        """
        if not self.autonomous:
            return self.frozen_along(Y, BY, state)
        eq = self.model.equilibrium
        field = self.model.field_many(BY + eq if np.any(eq) else BY)
        return self._remainder(BY, field), field, None, None

    def _remainder(self, BY: np.ndarray, field: np.ndarray) -> np.ndarray:
        """f_split from the ambient deviations BY = Y B^T (rows) and their
        field."""
        return (field - BY @ self._A0T) @ self._BinvT

    def propagators(self, h: float):
        """The linear_scan plans of the quadrature for the step h, built
        once per h from the phi matrices (Em, psi1, psi2) of -A_plus and
        (Ep, phi1, phi2) of A_rest: Em with the taps (-h (psi1 - psi2),
        -h psi2) and Ep with (h (phi1 - phi2), h phi2)."""
        key = ("plans", round(h, 15))
        if key not in self._cache:
            Em, p1m, p2m = _phi_matrices(-self.A_plus, h)
            Ep, p1p, p2p = _phi_matrices(self.A_rest, h)
            self._cache[key] = (
                scan_plan(Em, -h * (p1m - p2m), -h * p2m),
                scan_plan(Ep, h * (p1p - p2p), h * p2p))
        return self._cache[key]

    def rest_growth_constant(self, T: float) -> float:
        """The max of ||e^{s A_rest}||_2 e^{-rest_max_re * s} over 25
        equally spaced samples s of [0, T], and at least 1 (1 when there is
        no complement), cached per T.  It is a sampled estimate of the
        growth constant, not a bound: the norm may peak between samples.
        tail_bound takes it as the constant of the complement's
        propagator."""
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


def split_field(model: ModelSystem, splitting: SpectralSplitting
                ) -> SplitPieces:
    """Semilinear realization: autonomous blocks of A(0) plus remainder f.

    The SplitPieces of A0 = DF(equilibrium) and F0 = F(equilibrium) in the
    splitting's coordinates.  Their remainder f_split has f(0) = 0 and
    Df(0) = 0; the latter is checked by central finite differences of
    f_split itself, in split coordinates, and refused if ||Df(0)|| exceeds
    1e-6 max(||A(0)||_F, 1).
    """
    A0 = model.jacobian(model.equilibrium)
    pieces = SplitPieces(model=model, splitting=splitting, A0=A0,
                         F0=model.field_many(model.equilibrium[None])[0])
    # row j is the central difference along e_j: Df(0) transposed, on one
    # batch of states per side
    E = 1e-6 * np.eye(model.dimension)
    Df0 = (pieces.f_split(E) - pieces.f_split(-E)) / 2e-6
    if np.linalg.norm(Df0) > 1e-6 * max(np.linalg.norm(A0), 1.0):
        raise ValueError(
            f"splitting inconsistent with Jacobian: ||Df(0)|| = "
            f"{np.linalg.norm(Df0):.3e}")
    return pieces


def reversed_model(model: ModelSystem) -> ModelSystem:
    """Time-reversed system; its unstable manifold is the stable manifold.
    u' = -F(u) conserves what u' = F(u) conserves, so the energy is kept."""
    return ModelSystem(
        name=model.name + "_reversed",
        vector_field=lambda u: -model.vector_field(u),
        jacobian=lambda u: -model.jacobian(u),
        equilibrium=model.equilibrium, ladder=model.ladder,
        energy=model.energy)


# ---------------------------------------------------------------------------
# quasilinearizing transform

@dataclass
class QuasiTransform:
    """Change of variables v = B(u) = sum_blocks Pi_b (F(u) - shift_b u).

    Shifts are omega_plus - 1 on the unstable block and omega_minus + 1 on the
    complement; u is the deviation from the equilibrium.  The transformed
    evolution v' = DB(u) F(u), pieces.model, is quasilinear with block
    operators equal to the diagonal blocks of the full Jacobian and a
    remainder with Df(0) = 0.  invert_B and bmap take states (..., n), as
    the model's field does; invert_B starts every state cold at u = 0, while
    pieces.sweep_inputs can start each row from the inversion state of an
    earlier call.
    """

    pieces: SplitPieces
    invert_B: Callable[[np.ndarray], np.ndarray]
    bmap: Callable[[np.ndarray], np.ndarray]


def _shift_clash(splitting: SpectralSplitting, sp: float, sm: float) -> str:
    """The shift that meets an eigenvalue of A(0) on its own block: DB(0) is
    A(0) - s+ on the unstable block and A(0) - s- on the complement."""
    eig = np.asarray(splitting.eigenvalues)
    plus = np.array([b == "+" for b in splitting.blocks])
    clashes = []
    for name, shift, on, block in (("s+", sp, plus, "unstable"),
                                   ("s-", sm, ~plus, "complement")):
        if on.any():
            near = eig[on][np.argmin(np.abs(eig[on] - shift))]
            clashes.append((abs(near - shift), name, shift, near, block))
    _, name, shift, near, block = min(clashes, key=lambda c: c[0])
    if abs(near.imag) <= 1e-12 * max(abs(near), 1.0):
        near = near.real
    return (f"the {block} shift {name} = {shift:g} meets the eigenvalue "
            f"{near:.3g} of A(0) on that block")


def quasilinearize(model: ModelSystem, splitting: SpectralSplitting,
                   omega_plus: float | None = None,
                   omega_minus: float | None = None) -> QuasiTransform:
    """The QuasiTransform of model with the shifts of omega_plus and
    omega_minus (default: the splitting's).  B is inverted by at most 60
    damped Newton steps to the residual newton_tol, the constant 1e-12; a
    DB(0) of condition number above 1e12 is refused with ValueError naming
    the shift."""
    newton_tol = 1e-12
    om_p = splitting.omega_plus if omega_plus is None else omega_plus
    om_m = splitting.omega_minus if omega_minus is None else omega_minus
    sp, sm = om_p - 1.0, om_m + 1.0
    eq = model.equilibrium
    n = model.dimension
    # the spectral projectors Pp onto X_+ and I - Pp onto its complement
    # add to I, so B(u) = Pp (F - s+ u) + (I - Pp)(F - s- u) is F(eq + u)
    # - CS u with the one shift matrix CS, and DB(u) = DF(eq + u) - CS
    d = splitting.dim_plus
    Pp = splitting.B[:, :d] @ splitting.Binv[:d]
    CS = sp * Pp + sm * (np.eye(n) - Pp)
    # the row products take the contiguous transpose, made once
    CST = np.ascontiguousarray(CS.T)

    def bvals(U, FU):
        """B(U) from deviations U (rows) and their fields FU = F(eq + U)."""
        return FU - U @ CST

    def bmap_many(U):
        """(B(U), F(eq + U)) on deviations U (rows)."""
        Fu = model.field_many(eq + U)
        return bvals(U, Fu), Fu

    # the transformed system keeps the original projections; its blocks are
    # the diagonal blocks of the full state-dependent Jacobian
    base = split_field(model, splitting)
    # the model at u = 0, where a cold inversion starts
    J0 = base.A0
    F0 = base.F0[None]
    cond = float(np.linalg.cond(J0 - CS))
    if not np.isfinite(cond) or cond > 1e12:
        raise ValueError(
            f"DB(0) numerically singular (condition number {cond:.3e}): "
            f"{_shift_clash(splitting, sp, sm)}; choose different omega "
            "shifts")

    def _invert(V, start=None):
        """The inversion state (U, F(eq + U), DF(eq + U)) as rows, with
        B(U) = V for the states V (..., n).

        Damped Newton from start, the state of an earlier inversion of the
        same rows, or from u = 0 with the model values taken at setup.  The
        start is consumed: its arrays are updated in place and returned, so
        a sweep holds one (m, n, n) Jacobian stack, not two.  The starting
        residual comes from the carried field, and a row's DF is taken
        again where a step of that row is accepted.  Every row with a nonzero
        residual takes at least one full step: a row that starts within
        newton_tol of its state, but far from it relative to its own size
        (the tiny rows near t = -T_max), must not keep the start, since the
        weight e^{lam |t|} of the LP increment multiplies that error.  A
        row already within newton_tol stops when its step does not lower
        the residual, instead of halving the step."""
        V = _states(V, n).reshape(-1, n)
        if not np.all(np.isfinite(V)):
            raise ValueError("state contains non-finite entries")
        if start is None:
            U = np.zeros_like(V)
            FU = np.repeat(F0, len(V), axis=0)
            J = np.repeat(J0[None], len(V), axis=0)
        else:
            U, FU, J = start
            if U.shape != V.shape:
                raise ValueError(
                    f"start state has {len(U)} rows for {len(V)} states")
        res = bvals(U, FU) - V
        rnorm = np.linalg.norm(res, axis=1)
        act = np.flatnonzero(rnorm > 0.0)
        for _ in range(60):
            if act.size == 0:
                break
            step = np.linalg.solve(J[act] - CS,
                                   -res[act][:, :, None])[:, :, 0]
            lam = 1.0
            while act.size:
                if lam <= 1e-8:
                    raise RuntimeError(
                        "Newton stagnation inverting B (residual "
                        f"{rnorm[act].max():.3e})")
                cand = U[act] + lam * step
                rc, fc = bmap_many(cand)
                rc -= V[act]
                rcn = np.linalg.norm(rc, axis=1)
                ok = rcn < rnorm[act]
                done = act[ok]
                U[done], res[done], rnorm[done] = cand[ok], rc[ok], rcn[ok]
                FU[done] = fc[ok]
                if done.size:
                    J[done] = model.jacobian(eq + U[done])
                halve = ~ok & (rnorm[act] > newton_tol)
                act, step = act[halve], step[halve]
                lam *= 0.5
            act = np.flatnonzero(rnorm > newton_tol)
        if np.any(rnorm > newton_tol):
            raise RuntimeError(
                f"Newton failed inverting B (residual {rnorm.max():.3e})")
        return U, FU, J

    def invert_B(V):
        """u with B(u) = v for each state v of V (..., n).

        Damped Newton from u = 0 on all states at once: a state with a
        nonzero residual takes at least one full step and stops once its
        residual norm is at most newton_tol; each step of a state is halved
        until its residual norm strictly drops.  The start u = 0 reuses the
        model values at the equilibrium taken at setup, so a batch whose
        states all satisfy B(0) = v makes no model call.  The LP sweeps
        invert through pieces.sweep_inputs instead, each node starting from
        its state at the previous sweep.
        """
        return _invert(V)[0].reshape(np.shape(V))

    def bmap(U):
        """B(u) for deviations u of shape (..., n)."""
        return bmap_many(_states(U, n).reshape(-1, n))[0].reshape(np.shape(U))

    def transformed_field(state):
        """G(B(u)) = DB(u) F(eq + u) from an inversion state (rows)."""
        _, FU, J = state
        return (J @ FU[:, :, None])[:, :, 0] - FU @ CST

    def G(V):
        return transformed_field(_invert(V)).reshape(np.shape(V))

    def G_jac(V):
        # central differences of G, step 1e-6, on all 2n shifted copies of
        # each state at once; DG(0) = DB(0) A(0) DB(0)^-1 is A(0), kept exact:
        # CS is built from the spectral projectors of A(0), so DB(0) = A(0) -
        # CS commutes with it
        V = _states(V, n)
        E = 1e-6 * np.eye(n)
        Gs = G(np.concatenate([V[..., None, :] + E, V[..., None, :] - E],
                              axis=-2))
        DG = np.swapaxes((Gs[..., :n, :] - Gs[..., n:, :]) / 2e-6, -1, -2)
        at0 = np.linalg.norm(V, axis=-1) < 1e-14
        return np.where(at0[..., None, None], J0, DG)

    tmodel = ModelSystem(name=model.name + "_quasilinearized",
                         vector_field=G, jacobian=G_jac,
                         equilibrium=np.zeros(n), ladder=model.ladder)

    def frozen_along(Y, BY, state=None):
        """SplitPieces.sweep_inputs on this route: the remainder, the
        transformed field G(B y), the node blocks and the inversion state
        along split states Y (rows) with B(u) = BY, from one inversion of B
        per row."""
        state = _invert(BY, state)
        field = transformed_field(state)
        Afull = base.Binv @ state[2] @ base.B
        Ap, Ar = Afull[:, :d, :d], Afull[:, d:, d:]
        g = field @ base._BinvT
        g[:, :d] -= (Ap @ Y[:, :d, None])[:, :, 0]
        g[:, d:] -= (Ar @ Y[:, d:, None])[:, :, 0]
        return g, field, (Ap, Ar), state

    pieces = replace(base, model=tmodel, frozen_along=frozen_along)
    return QuasiTransform(pieces=pieces, invert_B=invert_B, bmap=bmap)


# ---------------------------------------------------------------------------
# the integral operator and its fixed point

def _lp_quadrature(pieces: SplitPieces, h: float, v0_plus: np.ndarray,
                   g: np.ndarray) -> np.ndarray:
    """Exponential-trapezoid LP quadrature on the autonomous split.

    g holds the forcing at the m grid nodes, with the split coordinates on
    its last axis; axes in between are independent orbits, each with its own
    row of v0_plus.  The unstable part runs backward from v0_plus at t = 0,
    S_j = Em S_{j+1} - h (psi1 - psi2) g_{j+1} - h psi2 g_j, and the
    complement forward from 0 at t = -T_max,
    R_{j+1} = Ep R_j + h (phi1 - phi2) g_j + h phi2 g_{j+1}: each one
    linear_scan of the remainder rows with the taps of propagators(h).
    """
    d = pieces.d_plus
    plan_m, plan_p = pieces.propagators(h)
    new = np.empty_like(g)
    # each scan writes its rows straight into its part of new
    _scan_into(plan_m, g[::-1, ..., :d], v0_plus, new[::-1, ..., :d])
    _scan_into(plan_p, g[..., d:], 0.0, new[..., d:])
    return new


def lp_apply(pieces: SplitPieces, cfg: LpConfig, v0_plus: np.ndarray,
             Y: np.ndarray, BY: np.ndarray | None = None,
             state: tuple | None = None) -> tuple[np.ndarray, tuple | None]:
    """One application of the Lyapunov-Perron operator on the grid.

    Returns the new split-coordinate orbit and the inversion state of B
    along Y that pieces.sweep_inputs returns (None on the autonomous
    route).  BY is the ambient image Y B^T where the caller holds it (the
    fixed point forms it once per sweep, for its increment); without it
    lp_apply forms it.  Passed as state to the next sweep, the inversion
    state starts each node's inversion from its value at this sweep;
    without it the inversions start cold at the equilibrium.  The state is
    consumed: the returned state holds its arrays, updated in place.
    """
    v0_plus = as_state(v0_plus, pieces.d_plus)
    if BY is None:
        BY = Y @ pieces._BT
    g, field, blocks, state = pieces.sweep_inputs(Y, BY, state)
    # the sweep reads only the remainder; the field goes before the
    # quadrature's arrays are made
    del field
    return _lp_sweep(pieces, cfg.h, v0_plus, g, blocks), state


def _lp_sweep(pieces: SplitPieces, h: float, v0_plus: np.ndarray,
              g: np.ndarray,
              blocks: tuple[np.ndarray, np.ndarray] | None = None
              ) -> np.ndarray:
    """The new orbit of lp_apply on the grid of step h, with the remainder
    g = f_split(Y) already evaluated.  Without blocks the sweep is the
    exponential quadrature of the fixed blocks; with the node blocks
    (A_plus, A_rest) along Y (sweep_inputs on the quasilinear route) it is
    two RK4 sweeps."""
    if not np.all(np.isfinite(g)):
        raise FloatingPointError("non-finite remainder evaluation in lp_apply")
    if blocks is None:
        return _lp_quadrature(pieces, h, v0_plus, g)
    # the unstable part runs backward from v0_plus at t = 0, the
    # complement forward from 0 at t = -T_max
    d = pieces.d_plus
    Ap, Ar = blocks
    new = np.empty_like(g)
    new[:, :d] = rk4_affine(Ap[::-1], g[::-1, :d], v0_plus, -h)[::-1]
    new[:, d:] = rk4_affine(Ar, g[:, d:], np.zeros(pieces.d_rest), h)
    return new


@dataclass
class LpResult:
    base_point: np.ndarray
    h_value: np.ndarray
    orbit: OrbitGrid          # ambient coordinates (absolute states)
    Y: np.ndarray             # split coordinates of the deviation
    diagnostics: dict


class _Iterate(NamedTuple):
    """A Lyapunov-Perron iterate: the split orbit Y, its ambient image
    BY = Y B^T and the quasilinear inversion state of B along Y (None on
    the autonomous route and for the zero orbit)."""

    Y: np.ndarray
    BY: np.ndarray
    state: tuple | None


def _require_lam_in_gap(pieces: SplitPieces, cfg: LpConfig) -> None:
    """Refuse a cfg.lam outside the gap (rest_max_re, lambda_plus)."""
    lo, hi = pieces.splitting.rest_max_re, pieces.splitting.lambda_plus
    if not (lo < cfg.lam < hi):
        raise ValueError(
            f"lambda={cfg.lam} outside the dichotomy gap ({lo}, {hi})")


def _lp_norm(pieces: SplitPieces, cfg: LpConfig) -> Callable[..., float]:
    """The norm max_j e^{-lam t_j} ||X_j||_{r-1} on cfg.times of every LP
    increment: of ambient differences X (m, n), or with split=True of split
    differences X (m, ..., n), taken to X B^T first; ||X_j|| takes all the
    entries of node j.  A non-finite X raises FloatingPointError."""
    decay = np.exp(-cfg.lam * cfg.times)
    w = pieces.model.ladder.weights(cfg.r - 1.0)
    # the level weights folded into the map to ambient coordinates
    WB = np.ascontiguousarray(pieces.B.T * w)
    # at level 0 (r = 1) every weight is 1, and multiplying by the weights
    # changes no bit: ambient differences skip it
    level0 = bool(np.all(w == 1.0))

    def norm(X: np.ndarray, split: bool = False) -> float:
        if split:
            X = X @ WB
        elif not level0:
            X = X * w
        # a non-finite entry makes its node's norm, and the max, non-finite
        inc = float(np.max(decay * _row_norms(X.reshape(len(X), -1))))
        if not math.isfinite(inc):
            raise FloatingPointError("orbit states contain non-finite entries")
        return inc

    return norm


def _lp_fixed_point(pieces: SplitPieces, cfg: LpConfig, v0_plus: np.ndarray
                    ) -> tuple[_Iterate, list, Callable[..., float]]:
    """Iterate the Lyapunov-Perron operator from the zero orbit until the
    weighted-norm increment is at most cfg.tol; lp_solve without its
    diagnostics, all that a re-solve of h needs.  Returns the fixed point,
    the increment of each sweep and their norm, _lp_norm, which lp_solve
    takes of a difference of split orbits (its fixed-point residual).

    A sweep maps one _Iterate to the next and forms the ambient image
    BY = Y B^T of its new orbit once.  That product gives the increment,
    the weighted norm of the change of BY, and the next sweep's lp_apply
    builds its inputs from it; the sweep consumes the inversion state of
    the iterate it maps.  On the autonomous route every node of the zero
    orbit rests at the equilibrium, so the first sweep is the quadrature of
    the row pieces._rest repeated over the grid, with no model call, whether
    that row is exactly zero (F(eq) = 0) or roundoff.  It still counts as a
    sweep.  The quasilinear route takes its first sweep through lp_apply,
    which starts the inversions of B that the later sweeps continue.  No
    sweep bounds the truncated tail: lp_solve takes it at the fixed point.

    Raises ValueError for lam outside the dichotomy gap or a base point
    outside the eps-ball, and NoContractionError when the sweeps stop above
    cfg.tol (linalg._contract).
    """
    _require_lam_in_gap(pieces, cfg)
    v0_plus = as_state(v0_plus, pieces.d_plus)
    if np.linalg.norm(v0_plus) > cfg.eps * (1 + 1e-12):
        raise ValueError("base point outside the eps-ball")
    norm = _lp_norm(pieces, cfg)

    # the zero orbit, which is its own image
    zero = np.zeros((len(cfg.times), pieces.dim))

    def sweep(it: _Iterate) -> _Iterate:
        if it.Y is zero and pieces.autonomous:
            # the first sweep, of the zero orbit
            state = None
            Y = _lp_sweep(pieces, cfg.h, v0_plus,
                          np.repeat(pieces._rest[None], len(zero), axis=0))
        else:
            Y, state = lp_apply(pieces, cfg, v0_plus, it.Y, it.BY, it.state)
        return _Iterate(Y, Y @ pieces._BT, state)

    fixed, incs = _contract(sweep, _Iterate(zero, zero, None),
                            lambda new, old: norm(new.BY - old.BY),
                            cfg.tol, cfg.max_iter)
    return fixed, incs, norm


def lp_solve(pieces: SplitPieces, cfg: LpConfig,
             v0_plus: np.ndarray) -> LpResult:
    """Iterate the Lyapunov-Perron operator from the zero orbit to its fixed
    point; h(v0_plus) is the complement part of v(0).  The diagnostics add
    one more sweep (the fixed-point residual), the trajectory residual, the
    tail bound and the quadrature budget.  The ambient image Y B^T that
    the sweeps carry (one product per sweep, _lp_fixed_point) also serves
    the residual sweep's inputs and the ambient orbit.  On the autonomous
    route the first sweep's remainder is built from F(eq) and evaluates no
    model, so a solve of k sweeps on a grid of m nodes evaluates the model
    on k m rows: k - 1 sweeps and the residual sweep, each on the whole
    grid.

    The diagnostic contraction_factor is the largest ratio of consecutive
    sweep increments (linalg._contraction_factor).

    error_budget = tol + tail_bound + quad_budget budgets the error of h
    for the model as given, a Galerkin truncation, and not for the PDE it
    truncates: it has no truncation term.  Neither of its last two terms
    is a bound: tail_bound, taken once from the residual sweep's remainder
    at the fixed point, is c ||g_rest(-T_max)|| / (lam - rest_max_re) with
    c = SplitPieces.rest_growth_constant, a maximum over samples (1 on the
    quasilinear route; the tail is 0 when there is no complement), and
    quad_budget is an estimate from the second differences of the
    remainder.

    Raises NoContractionError when the sweeps stop above cfg.tol.
    """
    (Y, BY, state), incs, norm = _lp_fixed_point(pieces, cfg, v0_plus)
    v0_plus = as_state(v0_plus)
    d = pieces.d_plus
    m, h = len(cfg.times), cfg.h

    # fixed-point residual: one more sweep, measured in the same norm; its
    # remainder and ambient field also serve the two checks below
    g, field, blocks, _ = pieces.sweep_inputs(Y, BY, state)
    fp_res = norm(_lp_sweep(pieces, h, v0_plus, g, blocks) - Y, split=True)

    # the truncated tail of the complement integral, from the remainder at
    # -T_max; varying blocks carry no dichotomy constant
    tail = 0.0
    if pieces.d_rest:
        c_rest = (pieces.rest_growth_constant(cfg.T_max) if blocks is None
                  else 1.0)
        denom = cfg.lam - pieces.splitting.rest_max_re
        tail = c_rest * float(np.linalg.norm(g[0, d:])) / max(denom, 1e-12)

    # Y B^T + eq, from the image the sweeps carried, shifted in place
    # (nothing reads it after the residual sweep), on a copy of the grid
    orbit = OrbitGrid(cfg.times.copy(),
                      np.add(BY, pieces.model.equilibrium, out=BY))
    traj_res = _trajectory_residual(orbit.states, field, h)

    # quadrature error budget from measured second differences of f
    if m > 2:
        second = _row_norms(g[2:] - 2 * g[1:-1] + g[:-2])
        quad_budget = float(h * second.sum() / 12.0)
    else:
        quad_budget = 0.0
    h_val = Y[-1, d:]
    diag = {
        "iterations": len(incs),
        "contraction_factor": _contraction_factor(incs),
        "fp_residual": fp_res,
        "tail_bound": tail,
        "quad_budget": quad_budget,
        "trajectory_residual": traj_res,
        "error_budget": cfg.tol + tail + quad_budget,
    }
    return LpResult(base_point=v0_plus, h_value=h_val, orbit=orbit, Y=Y,
                    diagnostics=diag)


def decay_rate_fit(orbit: OrbitGrid, ladder: NormLadder, r: float
                   ) -> tuple[float, float]:
    """Least-squares slope of log ||v(t)||_r over the window where the norm
    exceeds the floor, the constant 1e-12; returns (lambda_fit, R^2)."""
    norms = _row_norms(orbit.states * ladder.weights(r))
    if np.max(norms) <= 1e-300:
        raise ValueError("trivial orbit")
    mask = norms > 1e-12
    if mask.sum() < 10:
        raise ValueError("orbit too short for a decay fit (need 10 nodes)")
    # the least-squares line through the centred points
    t = orbit.times[mask]
    t -= t.mean()
    y = np.log(norms[mask])
    y -= y.mean()
    slope = float(t @ y / (t @ t))
    res = y - slope * t
    ss_tot = float(y @ y)
    r2 = 1.0 - float(res @ res) / ss_tot if ss_tot > 0 else 1.0
    return slope, r2


@dataclass
class ManifoldGraph:
    base_points: np.ndarray
    values: np.ndarray
    lambda_fit: np.ndarray
    iterations: np.ndarray
    fp_residual: np.ndarray
    status: list[str]
    error_budget: np.ndarray
    diagnostics: dict

    @property
    def ok(self) -> np.ndarray:
        return np.array([s == "ok" for s in self.status])


def _ball_grid(d: int, eps: float, n_per_dim: int,
               seed: int = 0) -> np.ndarray:
    """Base points in the eps-ball of R^d: up to d = 3 the points of the
    tensor grid of n_per_dim per dimension that lie in the ball (refused
    with ValueError when none does), above it 64 seeded Sobol points of the
    cube [-1, 1]^d taken radially onto the ball."""
    if d <= 3:
        axes = [np.linspace(-eps, eps, n_per_dim)] * d
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        keep = np.linalg.norm(pts, axis=1) <= eps * (1 + 1e-12)
        if not keep.any():
            raise ValueError(
                f"no base point to sample: a grid of {n_per_dim} per "
                f"dimension (--grid) has none in the eps-ball "
                f"(eps = {eps:g})")
        return pts[keep]
    from scipy.stats import qmc
    cube = qmc.Sobol(d, scramble=True, seed=seed).random(64) * 2.0 - 1.0
    # x ||x||_inf / ||x||_2 takes each cube shell ||x||_inf = s onto the
    # sphere of radius s, so the cube goes onto the ball
    l2 = np.linalg.norm(cube, axis=1, keepdims=True)
    linf = np.max(np.abs(cube), axis=1, keepdims=True)
    return cube * (linf / l2) * eps


def _largest_pair_ratio(V: np.ndarray, Bv: np.ndarray, H: np.ndarray,
                        Bh: np.ndarray, w: np.ndarray,
                        pairs: int = 2 ** 16) -> float:
    """Largest |w Bh (H_i - H_j)| / |w Bv (V_i - V_j)| over pairs i < j
    whose denominator exceeds 1e-14, 0 if none does.  The rows i go in
    blocks of about pairs / len(V), so the differences held at once number
    about pairs, not len(V)^2 / 2."""
    N = len(V)
    block = max(1, pairs // N)

    def norms(X, Bx, s, e):
        D = X[s:e, None] - X[None, s + 1:]
        return np.sqrt(np.sum((w * (D @ Bx.T)) ** 2, axis=-1))

    lip = 0.0
    for s in range(0, N - 1, block):
        # rows i in [s, e) against j > s: a pair with j < i is the pair
        # (j, i) of the same block, and j = i has dv = 0
        e = min(s + block, N - 1)
        dv, dh = norms(V, Bv, s, e), norms(H, Bh, s, e)
        far = dv > 1e-14
        if far.any():
            lip = max(lip, float(np.max(dh[far] / dv[far])))
    return lip


def build_manifold_graph(pieces: SplitPieces, cfg: LpConfig,
                         grid_spec: int | np.ndarray = 11,
                         seed: int = 0) -> ManifoldGraph:
    """Sample the manifold graph over a ball in the unstable coordinates.

    Samples are solved independently; failures are marked in the status
    column rather than aborting the graph.  A cfg.lam outside the dichotomy
    gap, an integer grid_spec that puts no point in the eps-ball and base
    points not d_plus wide are refused with ValueError before any sample.
    Diagnostics carry the Lipschitz estimate at level r-1 and the tangency
    fit of ||h|| / ||v|| vs ||v||.
    """
    _require_lam_in_gap(pieces, cfg)
    d = pieces.d_plus
    if isinstance(grid_spec, (int, np.integer)):
        pts = _ball_grid(d, cfg.eps, int(grid_spec), seed=seed)
    else:
        pts = np.atleast_2d(np.asarray(grid_spec, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != d:
            raise ValueError(f"base points must form an array of shape "
                             f"(samples, {d}), got shape {pts.shape}")
    nsamp = pts.shape[0]
    dr = pieces.d_rest
    values = np.full((nsamp, dr), np.nan)
    lam_fit = np.full(nsamp, np.nan)
    iters = np.zeros(nsamp)
    fp_res = np.full(nsamp, np.nan)
    budget = np.full(nsamp, np.nan)
    status: list[str] = []
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
                    lam_fit[i] = decay_rate_fit(
                        dev, pieces.model.ladder, cfg.r)[0]
                except ValueError:
                    pass
            status.append("ok")
        except _SAMPLE_FAILURES as exc:
            status.append(f"failed: {exc}")
    ok = np.array([s == "ok" for s in status])

    diagnostics: dict = {}
    if ok.sum() >= 2:
        # over all pairs of ok samples, in the ambient norm at level r-1
        w = pieces.model.ladder.weights(cfg.r - 1.0)
        V, H = pts[ok], values[ok]
        diagnostics["lipschitz_low"] = _largest_pair_ratio(
            V, pieces.B[:, :d], H, pieces.B[:, d:], w)
        vn = np.linalg.norm(V, axis=1)
        hn = np.linalg.norm(H, axis=1)
        nz = vn > 1e-14
        if nz.sum() >= 2:
            x, y = vn[nz], hn[nz] / vn[nz]
            A = np.vstack([x, np.ones_like(x)]).T
            coef, *_ = np.linalg.lstsq(A, y, rcond=None)
            diagnostics["tangency_slope"] = float(coef[0])
            diagnostics["tangency_intercept"] = float(coef[1])
    return ManifoldGraph(base_points=pts, values=values, lambda_fit=lam_fit,
                         iterations=iters, fp_residual=fp_res,
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
    for name, x in (("C0", C0), ("Cf", Cf), ("k", k)):
        if not (math.isfinite(x) and (x > 0 or name == "Cf" and x == 0)):
            raise ValueError("constants must be positive (Cf may be "
                             f"zero), got {name} = {x}")
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
        if t1 > l:
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
                        cfg: LpConfig, delta_t: float = 0.1) -> dict:
    """Flow each graph sample forward by delta_t and re-solve the graph at the
    new base point; reports ||h(u_+(dt)) - u_-(dt)|| per sample.  The
    samples flow together, as one batch of states, by RK4 with steps of at
    most min(cfg.dt, 0.1 / max(||DF(eq)||_2, 1)).  A re-solve stops at the
    fixed point, without lp_solve's diagnostics; a sample that flows out of
    the eps-ball, or whose re-solve fails, is skipped.  Raises ValueError
    for a delta_t that is not a positive finite number."""
    _positive_finite("delta_t", delta_t)
    model = pieces.model
    d = pieces.d_plus
    dt_forward = min(cfg.dt, 0.1 / max(np.linalg.norm(pieces.A0, 2), 1.0))
    arr = np.full(graph.base_points.shape[0], np.nan)
    ok = np.flatnonzero(graph.ok)
    skipped = len(arr) - len(ok)
    # the ok samples in split coordinates, before and after the flow
    ys = np.concatenate([graph.base_points[ok], graph.values[ok]], axis=1)
    if ok.size:
        u1 = integrate_rk4(lambda t, y: model.vector_field(y),
                           model.equilibrium + ys @ pieces.B.T, 0.0,
                           delta_t, dt_forward)
        ys = (u1 - model.equilibrium) @ pieces.Binv.T
    for i, yi in zip(ok, ys):
        try:
            Y1 = _lp_fixed_point(pieces, cfg, yi[:d])[0].Y
        except _SAMPLE_FAILURES:
            skipped += 1
            continue
        arr[i] = float(np.linalg.norm(Y1[-1, d:] - yi[d:]))
    finite = arr[np.isfinite(arr)]
    return {"residuals": arr,
            "max_residual": float(finite.max()) if finite.size else 0.0,
            "skipped": skipped}


def lp_variational(base: LpResult, pieces: SplitPieces, cfg: LpConfig):
    """First derivative of the manifold orbit with respect to the base point.

    Solves the linear Lyapunov-Perron system for U^1(t) (columns = derivative
    directions) by the same quadrature, from the zero orbit, with lp_solve's
    norm (_lp_norm) and stopping rule (cfg.tol within cfg.max_iter sweeps);
    returns (U1 trajectory, Dq) where Dq is the complement block of
    U^1(0) -- the graph derivative at the base point.  At the equilibrium
    Dq = 0 exactly (tangency).  Raises NoContractionError when the sweeps
    stop above cfg.tol.
    """
    d, n = pieces.d_plus, pieces.dim
    Adiag = sla.block_diag(pieces.A_plus, pieces.A_rest)
    # coupling along the base orbit: full Jacobian minus the frozen blocks
    J = pieces.model.jacobian(base.orbit.states)
    AtilT = (pieces.Binv @ J @ pieces.B - Adiag).transpose(0, 2, 1)

    # W[j] = U^1(t_j)^T, one row per derivative direction; the first sweep,
    # of the zero orbit, is the quadrature of zero forcing from the identity
    eye = np.eye(d)
    norm = _lp_norm(pieces, cfg)
    W, _ = _contract(lambda X: _lp_quadrature(pieces, cfg.h, eye, X @ AtilT),
                     np.zeros((len(cfg.times), d, n)),
                     lambda new, old: norm(new - old, split=True),
                     cfg.tol, cfg.max_iter)
    V = W.transpose(0, 2, 1)
    return V, V[-1, d:].copy()
