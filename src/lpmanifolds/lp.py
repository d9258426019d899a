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
                     _SCAN_CHUNK_BYTES, _chunks, _contract,
                     _contraction_factor, _positive_finite, _scan_into,
                     integrate_rk4, rk4_affine, scan_plan)
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

    @functools.cached_property
    def _decay(self) -> np.ndarray:
        decay = np.exp(-self.lam * self.times)
        decay.flags.writeable = False
        return decay


def _phi_matrices(A: np.ndarray, h: float):
    """(e^{hA}, psi1(hA), psi2(hA)) via one augmented matrix exponential, of
    a matrix A or of each matrix of a stack (K, d, d)."""
    d = A.shape[-1]
    if d == 0:
        z = np.zeros(A.shape)
        return z, z, z
    M = np.zeros(A.shape[:-2] + (3 * d, 3 * d))
    M[..., :d, :d] = h * A
    M[..., :d, d:2 * d] = np.eye(d)
    M[..., d:2 * d, 2 * d:] = np.eye(d)
    E = sla.expm(M)
    return E[..., :d, :d], E[..., :d, d:2 * d], E[..., :d, 2 * d:]


def _quadrature_plans(cache: dict, A_plus: np.ndarray, A_rest: np.ndarray,
                      h: float):
    """The linear_scan plans of the exponential-trapezoid LP quadrature
    for the step h, built once per h into cache, a layout's plan cache.
    The unstable part runs backward from v0_plus at t = 0,
    S_j = Em S_{j+1} - h (psi1 - psi2) g_{j+1} - h psi2 g_j, and the
    complement forward from 0 at t = -T_max,
    R_{j+1} = Ep R_j + h (phi1 - phi2) g_j + h phi2 g_{j+1}, from the phi
    matrices (Em, psi1, psi2) of -A_plus and (Ep, phi1, phi2) of A_rest,
    which may be stacks of per-block matrices."""
    key = round(h, 15)
    if key not in cache:
        Em, p1m, p2m = _phi_matrices(-A_plus, h)
        Ep, p1p, p2p = _phi_matrices(A_rest, h)
        cache[key] = (scan_plan(Em, -h * (p1m - p2m), -h * p2m),
                      scan_plan(Ep, h * (p1p - p2p), h * p2p))
    return cache[key]


# an entry of B or Binv at most this fraction of the matrix's largest entry
# couples no ambient coordinate to a split one (_mode_blocks)
_COUPLING_FLOOR = 1e-14
# the widest split part swept densely and the widest part of a mode block:
# linear_scan's blocks hold 64 // d >= 4 nodes up to d = 16
_DENSE_WIDTH = 16


@dataclass(frozen=True)
class _Rows:
    """The dense sweep layout: a split orbit is its rows (m, n), the first
    d columns unstable, and each product one gemm with BT, BinvT or AT,
    the contiguous transposes of B, Binv and blockdiag(A_plus, A_rest) (a
    transposed view takes NumPy's slower strided path)."""

    d: int
    BT: np.ndarray
    BinvT: np.ndarray
    A_plus: np.ndarray
    A_rest: np.ndarray
    AT: np.ndarray
    _plans: dict = field(default_factory=dict, repr=False, compare=False)

    def split(self, Y: np.ndarray) -> np.ndarray:
        return Y

    def rows(self, Y: np.ndarray, at: slice = slice(None)) -> np.ndarray:
        """The split rows of Y on the nodes at (a view)."""
        return Y[at]

    def shape(self, m: int) -> tuple:
        """The shape of a split orbit of m nodes: its rows (m, n)."""
        return (m, len(self.BT))

    def image(self, Y: np.ndarray) -> np.ndarray:
        return Y @ self.BT

    def remainder(self, Y: np.ndarray, field: np.ndarray) -> np.ndarray:
        """f_split along Y, field Binv^T - Y blockdiag(A_plus, A_rest)^T,
        from the field at eq + Y B^T (rows)."""
        g = field @ self.BinvT
        g -= Y @ self.AT
        return g

    def all_finite(self, g: np.ndarray) -> bool:
        return bool(np.all(np.isfinite(g)))

    @property
    def rest_blocks(self) -> list[np.ndarray]:
        """The complement blocks rest_growth_constant takes: A_rest."""
        return [self.A_rest]

    def quadrature(self, h: float, v0_plus: np.ndarray, g: np.ndarray,
                   rest: bool = True) -> np.ndarray:
        """The LP quadrature (_quadrature_plans) of the forcing g, rows
        (m, n) at the m grid nodes, written over g, which it returns: each
        part one scan of its columns.  With rest False the complement is
        not scanned: the caller's complement forcing is +0.0, whose scan
        from 0 is +0.0."""
        plan_m, plan_p = _quadrature_plans(self._plans, self.A_plus,
                                           self.A_rest, h)
        _scan_into(plan_m, g[::-1, :self.d], v0_plus)
        if rest:
            _scan_into(plan_p, g[:, self.d:], 0.0)
        return g


class _Part(NamedTuple):
    """One part (unstable or complement) of the split on the mode blocks:
    the slice `blocks` of the blocks that hold its coordinates, each in
    its first width[k] of w slots (the rest padded with 0), and the blocks
    of the part's matrices in those slots, zero-padded: BT (k, w, wa) and
    BinvT (k, wa, w) of B^T and Binv^T from and to the ambient slots, and A
    (k, w, w) of A_plus or A_rest.  Coordinate i of the part lies in slot
    slot[i] of its block block[i] (counted within the part)."""

    blocks: slice
    width: np.ndarray
    block: np.ndarray
    slot: np.ndarray
    BT: np.ndarray
    BinvT: np.ndarray
    A: np.ndarray


@dataclass(frozen=True)
class _ModeBlocks:
    """The coupling blocks of A(0) and the block layout of the sweeps.

    Block k joins the ambient coordinates amb[k] with the split coordinates
    that B and Binv couple to them; no entry of A0 couples two blocks, and
    B and Binv vanish outside them up to _COUPLING_FLOOR.  The blocks with
    unstable coordinates come first and those with complement coordinates
    last, so that each _Part is a slice of them.  The sweeps hold a split
    orbit as the pair (plus, rest) of (k, m, w) arrays, one per part, each
    contiguous, so that a part's scan reads and writes whole recurrences.
    Ambient states stay rows in model order, as the field takes them; a
    block's ambient coordinates take the wa slots amb[k] (pads repeat its
    first), and amb_slot[i] is the flat slot k * wa + l of ambient i.
    """

    amb: np.ndarray
    amb_slot: np.ndarray
    plus: _Part
    rest: _Part
    _plans: dict = field(default_factory=dict, repr=False, compare=False)

    def split(self, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The block layout of split rows Y (m, n)."""
        out, at = [], 0
        for part in (self.plus, self.rest):
            d = len(part.block)
            X = np.zeros(part.A.shape[:1] + (len(Y),) + part.A.shape[2:])
            X[part.block, :, part.slot] = Y[:, at:at + d].T
            out.append(X)
            at += d
        return out[0], out[1]

    def shape(self, m: int) -> tuple:
        """The shapes of a split orbit of m nodes: one (k, m, w) per part."""
        return tuple(p.A.shape[:1] + (m,) + p.A.shape[2:]
                     for p in (self.plus, self.rest))

    def rows(self, Y: tuple[np.ndarray, np.ndarray],
             at: slice = slice(None)) -> np.ndarray:
        """The split rows (m, n) of Y in the block layout, on the nodes
        at."""
        Y = tuple(X[:, at] for X in Y)
        d = len(self.plus.block)
        out = np.empty((Y[0].shape[1], d + len(self.rest.block)))
        for part, X, cols in zip((self.plus, self.rest), Y,
                                 (slice(0, d), slice(d, None))):
            out[:, cols] = X[part.block, :, part.slot].T
        return out

    def image(self, Y: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """The ambient image Y B^T, as rows (m, n), of Y in the block
        layout: each part's batched matmul writes (or, in blocks holding
        both parts, adds to) its blocks' ambient slots, then one take puts
        the rows in model order."""
        Yp, Yr = Y
        m = Yr.shape[1]
        slots = np.empty((m,) + self.amb.shape)
        by_block = slots.swapaxes(0, 1)
        np.matmul(Yr, self.rest.BT, out=by_block[self.rest.blocks])
        plus = Yp @ self.plus.BT
        mixed = self.rest.blocks.start
        by_block[:mixed] = plus[:mixed]
        by_block[mixed:self.plus.blocks.stop] += plus[mixed:]
        return np.take(slots.reshape(m, -1), self.amb_slot, axis=1)

    def remainder(self, Y: tuple[np.ndarray, np.ndarray],
                  field: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """f_split in the block layout along Y, from the field at eq + Y B^T
        (rows): per part, field Binv_part^T - Y_part A_part^T, two batched
        matmuls, the split form of _Rows.remainder.  A pad slot repeats
        its block's first ambient coordinate and meets a zero row of
        BinvT."""
        m = len(field)
        F = np.take(field, self.amb.ravel(), axis=1).reshape(
            (m,) + self.amb.shape).swapaxes(0, 1)
        parts = (self.plus, self.rest)
        out = [F[part.blocks] @ part.BinvT for part in parts]
        # the gathered field goes before the second products are made
        del F
        for g, part, X in zip(out, parts, Y):
            g -= X @ part.A.swapaxes(1, 2)
        return out[0], out[1]

    def all_finite(self, g: tuple[np.ndarray, np.ndarray]) -> bool:
        return all(bool(np.all(np.isfinite(x))) for x in g)

    @property
    def rest_blocks(self) -> list[np.ndarray]:
        """The complement blocks rest_growth_constant takes: one stack
        (k, w, w) per block width w."""
        A, width = self.rest.A, self.rest.width
        return [A[width == w][:, :w, :w] for w in np.unique(width)]

    def quadrature(self, h: float, v0_plus: np.ndarray,
                   g: tuple[np.ndarray, np.ndarray], rest: bool = True
                   ) -> tuple[np.ndarray, np.ndarray]:
        """The LP quadrature (_quadrature_plans) in the block layout,
        written over g, which it returns: each part one scan of its blocks
        with per-block plans, the unstable part read backward.  With rest
        False the complement is not scanned (_Rows.quadrature)."""
        plan_m, plan_p = _quadrature_plans(self._plans, self.plus.A,
                                           self.rest.A, h)
        (gp, gr), part = g, self.plus
        start = np.zeros(part.A.shape[:2])
        start[part.block, part.slot] = v0_plus
        _scan_into(plan_m, gp[:, ::-1], start)
        if rest:
            _scan_into(plan_p, gr, 0.0)
        return g


def _mode_blocks(B: np.ndarray, Binv: np.ndarray, A0: np.ndarray, d: int,
                 A_plus: np.ndarray, A_rest: np.ndarray) -> _ModeBlocks | None:
    """The coupling blocks of the split (B, Binv, d) of A0, or None where
    the sweeps stay dense: when both parts are at most _DENSE_WIDTH wide,
    when A0 does not decouple, when a block's part is wider than that or
    when a block's B times its Binv is not I to 1e-12.

    The blocks are the connected components of the graph on the ambient
    and the split coordinates that joins ambient i to split j where |B_ij|
    or |Binv_ji| exceeds _COUPLING_FLOOR of that matrix's largest entry,
    and ambient i to i' where A0_ii' is not 0."""
    n = len(B)
    if not (0 < d < n and max(d, n - d) > _DENSE_WIDTH):
        return None
    # imported here, where a part is wide, so that the models swept in
    # rows do not load it
    from scipy.sparse.csgraph import connected_components
    link = ((np.abs(B) > _COUPLING_FLOOR * np.abs(B).max())
            | (np.abs(Binv.T) > _COUPLING_FLOOR * np.abs(Binv).max()))
    # nodes 0, ..., n - 1 are the ambient coordinates, n, ..., 2n - 1 the
    # split ones
    K, label = connected_components(
        np.block([[A0 != 0, link], [np.zeros((n, 2 * n), dtype=bool)]]),
        directed=False)
    if K < 2:
        return None
    amb = [np.flatnonzero(label[:n] == k) for k in range(K)]
    split = [np.flatnonzero(label[n:] == k) for k in range(K)]
    for a, s in zip(amb, split):
        if len(a) != len(s) or np.abs(
                B[np.ix_(a, s)] @ Binv[np.ix_(s, a)]
                - np.eye(len(a))).max() > 1e-12:
            return None
    # unstable-only blocks, then mixed ones, then complement-only ones
    order = sorted(range(K), key=lambda k: (
        int(np.all(split[k] >= d)) + int(np.any(split[k] >= d)), amb[k][0]))
    amb = [amb[k] for k in order]
    split = [split[k] for k in order]
    wa = max(map(len, amb))
    amb_idx = np.empty((K, wa), dtype=np.intp)
    amb_slot = np.empty(n, dtype=np.intp)
    for k, a in enumerate(amb):
        amb_idx[k] = a[0]
        amb_idx[k, :len(a)] = a
        amb_slot[a] = k * wa + np.arange(len(a))

    def part(lo, hi, A):
        """The _Part of the split coordinates lo <= j < hi, whose blocks
        of Binv A0 B are A."""
        ks = [k for k in range(K) if np.any((split[k] >= lo)
                                            & (split[k] < hi))]
        idx = [split[k][(split[k] >= lo) & (split[k] < hi)] for k in ks]
        width = np.array([len(i) for i in idx])
        w = int(width.max())
        block, slot = np.empty(hi - lo, np.intp), np.empty(hi - lo, np.intp)
        BT = np.zeros((len(ks), w, wa))
        BinvT = np.zeros((len(ks), wa, w))
        Ab = np.zeros((len(ks), w, w))
        for j, (k, i) in enumerate(zip(ks, idx)):
            a, c = amb[k], np.arange(len(i))
            block[i - lo], slot[i - lo] = j, c
            BT[j][np.ix_(c, range(len(a)))] = B[np.ix_(a, i)].T
            BinvT[j][np.ix_(range(len(a)), c)] = Binv[np.ix_(i, a)].T
            Ab[j][np.ix_(c, c)] = A[np.ix_(i - lo, i - lo)]
        return _Part(slice(ks[0], ks[-1] + 1), width, block, slot, BT,
                     BinvT, Ab)

    plus, rest = part(0, d, A_plus), part(d, n, A_rest)
    if max(plus.A.shape[-1], rest.A.shape[-1]) > _DENSE_WIDTH:
        return None
    return _ModeBlocks(amb=amb_idx, amb_slot=amb_slot, plus=plus, rest=rest)


def _normal(A: np.ndarray) -> bool:
    """Whether the matrix A, or every matrix of a stack (k, w, w), commutes
    with its transpose exactly (a diagonal block does)."""
    At = np.swapaxes(A, -1, -2)
    return np.array_equal(A @ At, At @ A)


@dataclass(frozen=True)
class SplitPieces:
    """Block-diagonal linear parts and the superlinear remainder.

    Coordinates: y = Binv @ (u - equilibrium), with the first d_plus entries
    spanning the unstable subspace.  f_split returns the remainder
    Binv (F(eq + B y) - A0 B y), which vanishes to second order at 0;
    A0 = DF(equilibrium) and F0 = F(equilibrium), one row, both taken by
    split_field (the quasilinear route keeps the direct model's A0 and F0,
    the values its inversion starts from).  Every route takes it in the
    split form Binv F - blockdiag(A_plus, A_rest) y; sweep_inputs is the one
    method that reads the route: fixed blocks on the autonomous split, node
    blocks from frozen_along on the quasilinear route.
    The value is frozen.  __post_init__ derives the rest, and
    dataclasses.replace derives it again: B, Binv and d_plus are the
    splitting's; A_plus and A_rest are the diagonal blocks of Binv A0 B,
    whose other blocks must be within 1e-8 max(||A0||_F, 1) of 0
    (ValueError otherwise); _rest is f_split of the equilibrium on the
    autonomous split, the forcing of every node in the first sweep of the
    zero orbit.  The cache holds the growth constants, one per horizon; it
    is not a field of the constructor, so replace starts a fresh one.

    layout is the one layout of the pieces: the coupling blocks of A0
    (_ModeBlocks) where _mode_blocks finds them on the autonomous split,
    else the rows (_Rows).  The sweeps, f_split and lp_variational call
    its split, rows, image, remainder and quadrature, and it owns the scan
    plans, one per step.  Rows stay where no blocks are found: taken as
    one block, a dense model solves up to 1.5 times slower.
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
        A_plus, A_rest = Ahat[:d, :d], Ahat[d:, d:]
        blocks = (_mode_blocks(sp.B, sp.Binv, self.A0, d, A_plus, A_rest)
                  if self.autonomous else None)
        # the rows are built only where they are the layout
        layout = blocks or _Rows(d, c(sp.B.T), c(sp.Binv.T), A_plus, A_rest,
                                 c(sla.block_diag(A_plus, A_rest).T))
        for name, value in dict(
                B=sp.B, Binv=sp.Binv, d_plus=d, A_plus=A_plus,
                A_rest=A_rest, layout=layout).items():
            object.__setattr__(self, name, value)
        # f_split of the equilibrium from F0, on two copies of the row: one
        # row goes to gemv, whose sums round otherwise than a grid's gemm,
        # and the first sweep must keep the bits of a grid's evaluation,
        # by the remainder the sweeps take
        two = np.repeat(self.F0[None], 2, axis=0)
        rest = layout.rows(layout.remainder(
            layout.split(np.zeros_like(two)), two))
        object.__setattr__(self, "_rest", rest[0])

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
        """The remainder at split states Y (..., n): the rows of
        sweep_inputs' remainder along Y in the layout."""
        X = self.layout.split(np.asarray(Y, float).reshape(-1, self.dim))
        g = self.sweep_inputs(X, self.layout.image(X))[0]
        return self.layout.rows(g).reshape(np.shape(Y))

    def sweep_inputs(self, Y: np.ndarray, BY: np.ndarray,
                     state: tuple | None = None) -> tuple:
        """(g, field, blocks, state) along the split states Y in the
        layout, whose ambient image Y B^T is BY (rows): the remainder
        g = f_split(Y) in the layout, the ambient field it is built from,
        the node blocks (A_plus, A_rest) and the inversion state of B.

        On the autonomous route the field is the model's at eq + BY, and
        blocks and state are None: the blocks are the fixed ones.  On the
        quasilinear route (rows Y) it is frozen_along, which inverts B at
        BY, one inversion per row, starting from state, the state an
        earlier call returned for the same rows, or cold at u = 0.  The
        state is consumed: the returned state holds its arrays, updated in
        place.
        """
        if not self.autonomous:
            return self.frozen_along(Y, BY, state)
        eq = self.model.equilibrium
        field = self.model.field_many(BY + eq if np.any(eq) else BY)
        return self.layout.remainder(Y, field), field, None, None

    def rest_growth_constant(self, T: float) -> float:
        """The max of ||e^{s A_rest}||_2 e^{-rest_max_re * s} over 25
        equally spaced samples s of [0, T], and at least 1 (1 when there is
        no complement), cached per T.  The norm of each sample is the
        largest over the layout's complement blocks, taken by batched
        exponentials of the blocks of each width.  It is a sampled
        estimate of the growth constant, not a bound: the norm may peak
        between samples.  Where every block commutes with its transpose
        exactly, the constant is exactly 1 and no
        exponential is taken: a normal block has ||e^{sA}||_2 = e^{s a},
        a its spectral abscissa, at most rest_max_re.  tail_bound takes it
        as the constant of the complement's propagator."""
        key = ("crest", round(T, 12))
        if key not in self._cache:
            blocks = self.layout.rest_blocks if self.d_rest else []
            if all(map(_normal, blocks)):
                self._cache[key] = 1.0
            else:
                rate = self.splitting.rest_max_re
                c = 1.0
                for s in np.linspace(0.0, T, 25):
                    norm = max(np.linalg.norm(sla.expm(s * A), 2,
                                              axis=(-2, -1)).max()
                               for A in blocks)
                    c = max(c, norm * math.exp(-rate * s))
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
    # the row products take the contiguous transposes, made once
    CST, BinvT = (np.ascontiguousarray(M.T) for M in (CS, splitting.Binv))

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
        g = field @ BinvT
        g[:, :d] -= (Ap @ Y[:, :d, None])[:, :, 0]
        g[:, d:] -= (Ar @ Y[:, d:, None])[:, :, 0]
        return g, field, (Ap, Ar), state

    pieces = replace(base, model=tmodel, frozen_along=frozen_along)
    return QuasiTransform(pieces=pieces, invert_B=invert_B, bmap=bmap)


# ---------------------------------------------------------------------------
# the integral operator and its fixed point

def lp_apply(pieces: SplitPieces, cfg: LpConfig, v0_plus: np.ndarray,
             Y: np.ndarray, BY: np.ndarray | None = None,
             state: tuple | None = None) -> tuple[np.ndarray, tuple | None]:
    """One application of the Lyapunov-Perron operator on the grid.

    Y is the split orbit in pieces.layout (rows (m, n) unless the sweeps
    take mode blocks), and the new orbit comes back in it.  Returns it and
    the inversion state of B along Y that pieces.sweep_inputs returns (None
    on the autonomous route), which the next sweep takes as state and
    consumes; without a state the inversions start cold.  BY is the
    ambient image Y B^T (rows) where the caller holds it (the fixed point
    forms it once per sweep, for its increment); without it lp_apply forms
    it with the layout's image.  An orbit that is not in pieces.layout on
    the nodes of cfg.times is refused (ValueError).
    """
    v0_plus = as_state(v0_plus, pieces.d_plus)
    m = len(cfg.times)
    want = pieces.layout.shape(m)
    got = (tuple(np.shape(x) for x in Y) if isinstance(Y, tuple)
           else np.shape(Y))
    if got != want:
        raise ValueError(
            f"expected a split orbit on the {m} nodes of cfg.times in "
            f"pieces.layout, of shape {want}, got {got}; "
            f"pieces.layout.split takes split rows (m, n) to it")
    if BY is None:
        BY = pieces.layout.image(Y)
    g, field, blocks, state = pieces.sweep_inputs(Y, BY, state)
    # the sweep reads only the remainder; the field goes before the
    # quadrature's arrays are made
    del field
    return _lp_sweep(pieces, cfg.h, v0_plus, g, blocks), state


def _shift(eq: np.ndarray) -> np.ndarray | float:
    """eq, or the scalar 0.0 where every entry of eq is +0.0: adding or
    subtracting either gives the same bits (-0.0 + 0.0 is +0.0 with both),
    and the scalar takes no pass of a row broadcast over the orbit.  An
    eq with a -0.0 entry is kept: adding or subtracting -0.0 keeps or flips
    a zero's sign otherwise than +0.0 does."""
    return eq if np.any(eq) or np.signbit(eq).any() else 0.0


def _lp_sweep(pieces: SplitPieces, h: float, v0_plus: np.ndarray,
              g: np.ndarray,
              blocks: tuple[np.ndarray, np.ndarray] | None = None
              ) -> np.ndarray:
    """The new orbit of lp_apply on the grid of step h, in the layout of
    pieces, with the remainder g = f_split(Y) already evaluated in that
    layout; it is written over g, which is returned.  Without blocks the
    sweep is the layout's exponential quadrature of the fixed blocks; with
    the node blocks (A_plus, A_rest) along Y (sweep_inputs on the
    quasilinear route, rows) it is two RK4 sweeps."""
    if not pieces.layout.all_finite(g):
        raise FloatingPointError("non-finite remainder evaluation in lp_apply")
    if blocks is None:
        return pieces.layout.quadrature(h, v0_plus, g)
    # the unstable part runs backward from v0_plus at t = 0, the
    # complement forward from 0 at t = -T_max
    d = pieces.d_plus
    Ap, Ar = blocks
    # each RK4 sweep reads all of its part of g before it returns
    g[:, :d] = rk4_affine(Ap[::-1], g[::-1, :d], v0_plus, -h)[::-1]
    g[:, d:] = rk4_affine(Ar, g[:, d:], np.zeros(pieces.d_rest), h)
    return g


@dataclass
class LpResult:
    base_point: np.ndarray
    h_value: np.ndarray
    orbit: OrbitGrid          # ambient coordinates (absolute states)
    Y: np.ndarray             # split coordinates of the deviation
    diagnostics: dict


class _Iterate(NamedTuple):
    """A Lyapunov-Perron iterate: the split orbit Y in the layout,
    its ambient image BY = Y B^T (rows) and the quasilinear inversion
    state of B along Y (None on the autonomous route)."""

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
    entries of node j.  With nodes, X holds only the nodes cfg.times[nodes]
    and the max runs over them.  A non-finite X raises
    FloatingPointError."""
    decay = cfg._decay
    w = pieces.model.ladder.weights(cfg.r - 1.0)
    # the level weights folded into the map to ambient coordinates
    WB = np.ascontiguousarray(pieces.B.T * w)
    # at level 0 (r = 1) every weight is 1, and multiplying by the weights
    # changes no bit: ambient differences skip it
    level0 = bool(np.all(w == 1.0))

    def norm(X: np.ndarray, split: bool = False,
             nodes: slice = slice(None)) -> float:
        if split:
            X = X @ WB
        elif not level0:
            X = X * w
        # a non-finite entry makes its node's norm, and the max, non-finite
        inc = float(np.max(decay[nodes] * _row_norms(X.reshape(len(X), -1))))
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
    BY = Y B^T of its new orbit once (the layout's image; the orbit stays
    in the layout).  That product gives the increment,
    the weighted norm of the change of BY, and the next sweep's lp_apply
    builds its inputs from it; the sweep consumes the inversion state of
    the iterate it maps.  On the autonomous route every node of the zero
    orbit rests at the equilibrium, so the first sweep is the quadrature of
    the row pieces._rest on every node (_first_sweep), with no model call
    and no zero orbit, whether that row is exactly zero (F(eq) = 0; the
    complement is then not scanned) or roundoff; its increment is the norm
    of its image.  It still counts as a sweep.  The quasilinear route
    takes its first sweep through lp_apply of the zero orbit, which starts
    the inversions of B that the later sweeps continue.  No sweep bounds
    the truncated tail: lp_solve takes it at the fixed point.

    Raises ValueError for lam outside the dichotomy gap or a base point
    outside the eps-ball, and NoContractionError when the sweeps stop above
    cfg.tol (linalg._contract).
    """
    _require_lam_in_gap(pieces, cfg)
    v0_plus = as_state(v0_plus, pieces.d_plus)
    if np.linalg.norm(v0_plus) > cfg.eps * (1 + 1e-12):
        raise ValueError("base point outside the eps-ball")
    norm = _lp_norm(pieces, cfg)
    layout, m = pieces.layout, len(cfg.times)

    def sweep(it: _Iterate | None) -> _Iterate:
        if it is not None:
            Y, state = lp_apply(pieces, cfg, v0_plus, it.Y, it.BY, it.state)
        elif pieces.autonomous:
            Y, state = _first_sweep(pieces, cfg.h, v0_plus, m), None
        else:
            # the zero orbit, whose image is zero
            zero = np.zeros((m, pieces.dim))
            Y, state = lp_apply(pieces, cfg, v0_plus, layout.split(zero),
                                zero)
        return _Iterate(Y, layout.image(Y), state)

    fixed, incs = _contract(
        sweep, None,
        lambda new, old: norm(new.BY if old is None else new.BY - old.BY),
        cfg.tol, cfg.max_iter)
    return fixed, incs, norm


def _first_sweep(pieces: SplitPieces, h: float, v0_plus: np.ndarray,
                 m: int) -> np.ndarray:
    """The autonomous first sweep on m nodes, from the zero orbit, whose
    every node rests at the equilibrium: the quadrature of the row
    pieces._rest on every node, in the layout.  Where the complement part
    of that row is exactly zero (F(eq) = 0), the complement of the new
    orbit is the scan of zero from 0, +0.0, and stays as np.zeros made it:
    only the unstable part is scanned."""
    rest, d = pieces._rest, pieces.d_plus
    if not np.all(np.isfinite(rest)):
        raise FloatingPointError("non-finite remainder evaluation in lp_apply")
    moves = bool(np.any(rest[d:]))
    rows = np.zeros((m, pieces.dim))
    if moves:
        rows[...] = rest
    else:
        rows[:, :d] = rest[:d]
    g = pieces.layout.split(rows)
    # on mode blocks the rows are a copy: it goes before the scans
    del rows
    return pieces.layout.quadrature(h, v0_plus, g, rest=moves)


def _node_chunks(lo: int, hi: int, n: int) -> list[slice]:
    """The nodes lo .. hi - 1 in slices of about _SCAN_CHUNK_BYTES of rows
    of n floats, each of two nodes or more where there are two: a product
    of one row goes to gemv, whose sums round otherwise than a grid's
    gemm."""
    return [slice(a, b)
            for a, b in _chunks(lo, hi, _SCAN_CHUNK_BYTES // (8 * max(n, 1)))]


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
    grid.  The epilogue holds no full-grid array beyond the residual
    sweep's inputs: the checks read the remainder before the sweep
    consumes it, and take split rows in node chunks (_node_chunks).

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
    layout, d = pieces.layout, pieces.d_plus
    m, h = len(cfg.times), cfg.h

    # the residual sweep's inputs; the field serves the trajectory
    # residual, and the ambient image, shifted in place (nothing reads it
    # after), the orbit, on a copy of the grid
    g, field, blocks, _ = pieces.sweep_inputs(Y, BY, state)
    orbit = OrbitGrid(cfg.times.copy(),
                      np.add(BY, _shift(pieces.model.equilibrium), out=BY))
    traj_res = _trajectory_residual(orbit.states, field, h)
    del field

    # the truncated tail of the complement integral, from the remainder at
    # -T_max; varying blocks carry no dichotomy constant
    tail = 0.0
    if pieces.d_rest:
        c_rest = (pieces.rest_growth_constant(cfg.T_max) if blocks is None
                  else 1.0)
        denom = cfg.lam - pieces.splitting.rest_max_re
        tail = c_rest * float(np.linalg.norm(
            layout.rows(g, slice(0, 1))[0, d:])) / max(denom, 1e-12)

    # quadrature error budget from measured second differences of f at the
    # interior nodes
    second = np.empty(max(m - 2, 0))
    for at in _node_chunks(1, m - 1, pieces.dim):
        G = layout.rows(g, slice(at.start - 1, at.stop + 1))
        second[at.start - 1:at.stop - 1] = _row_norms(
            G[2:] - 2 * G[1:-1] + G[:-2])
    quad_budget = float(h * second.sum() / 12.0) if m > 2 else 0.0

    # fixed-point residual: one more sweep, which consumes g, measured in
    # the same norm
    new = _lp_sweep(pieces, h, v0_plus, g, blocks)
    fp_res = max(norm(layout.rows(new, at) - layout.rows(Y, at), split=True,
                      nodes=at) for at in _node_chunks(0, m, pieces.dim))
    del new, g
    Y = layout.rows(Y)
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
    w = ladder.weights(r)
    # unit weights change no bit: the states go as they are
    norms = _row_norms(orbit.states if np.all(w == 1.0)
                       else orbit.states * w)
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
    eq = _shift(pieces.model.equilibrium)
    status: list[str] = []
    for i in range(nsamp):
        try:
            res = lp_solve(pieces, cfg, pts[i])
            values[i] = res.h_value
            iters[i] = res.diagnostics["iterations"]
            fp_res[i] = res.diagnostics["fp_residual"]
            budget[i] = res.diagnostics["error_budget"]
            if np.linalg.norm(pts[i]) > 0:
                dev = OrbitGrid(res.orbit.times, res.orbit.states - eq)
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
            Y1 = pieces.layout.rows(_lp_fixed_point(pieces, cfg, yi[:d])[0].Y)
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
    Dq = 0 exactly (tangency).  Each unstable direction e_i is one split
    orbit x in pieces.layout, swept in turn: its forcing is the layout's
    remainder of the field J(u) B x along the base orbit u, that is
    Binv J B x - blockdiag(A_plus, A_rest) x, scanned from e_i with the
    plans lp_solve cached; an increment takes the change of every
    direction.  Raises ValueError for a base orbit that is not on the
    nodes of cfg.times, and NoContractionError when the sweeps stop above
    cfg.tol.
    """
    orbit, layout, d = base.orbit, pieces.layout, pieces.d_plus
    if not np.array_equal(orbit.times, cfg.times):
        raise ValueError(
            f"expected a base orbit on the {len(cfg.times)} nodes of "
            f"cfg.times, got one on {len(orbit.times)} other nodes")
    J = pieces.model.jacobian(orbit.states)

    def sweep(X: list) -> list:
        return [layout.quadrature(cfg.h, e, layout.remainder(
            x, np.matmul(J, layout.image(x)[:, :, None])[:, :, 0]))
            for e, x in zip(np.eye(d), X)]

    def rows(X: list) -> np.ndarray:
        """The split rows (d, m, n) of the directions X (d may be 0)."""
        return np.reshape([layout.rows(x) for x in X],
                          (d,) + orbit.states.shape)

    # an increment takes the change of every direction at once
    norm = _lp_norm(pieces, cfg)
    X, _ = _contract(sweep, [layout.split(np.zeros_like(orbit.states))] * d,
                     lambda new, old: norm((rows(new) - rows(old)).swapaxes(
                         0, 1), split=True), cfg.tol, cfg.max_iter)
    V = rows(X).transpose(1, 2, 0)
    return V, V[-1, d:].copy()
