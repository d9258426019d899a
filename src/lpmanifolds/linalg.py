"""Spectral splitting, Lyapunov quadratic forms, and non-autonomous evolution.

Splits the equilibrium linearization into unstable/center/stable blocks with
true spectral projections (ordered Schur + Sylvester), builds the quadratic
forms L solving A^T L + L A - 2 w L = -I that certify dissipativity at rate w,
integrates linear systems v' = A(t)v along stored trajectories with
growth-bound and metric-variation diagnostics, and iterates contractions to
their fixed points under one stopping rule.
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
    "NoContractionError",
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
    "integrate_rk4",
    "ScanPlan",
    "scan_plan",
    "linear_scan",
    "rk4_affine",
]


class AmbiguousSplitError(ValueError):
    """An eigenvalue sits inside the forbidden band around the gap boundary."""


class NoContractionError(RuntimeError):
    """A fixed-point iteration stopped with its increment above tol."""


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


def hamiltonian_symmetry_check(A) -> dict:
    """Check the spectrum is symmetric under lambda -> -conj(lambda).

    Returns {'worst': max over eigenvalues of the distance to the nearest
    partner, 'symmetric': worst <= 1e-8}.  Report-only.
    """
    M = _as_matrix(A)
    lam = np.linalg.eigvals(M)
    # row i: the distances |lambda_j - (-conj(lambda_i))| over all j
    worst = float(np.abs(lam + np.conj(lam)[:, None]).min(axis=1).max())
    return {"worst": worst, "symmetric": bool(worst <= 1e-8)}


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

def _rk4_step(f: Callable[[float, np.ndarray], np.ndarray], t: float,
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
    (record_times must be monotone from t0 towards t1).  Without
    record_times the final state is the record at t1.
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
    rec = [t1] if record_times is None else list(record_times)
    out = []
    y_cur, t_cur = np.array(y0, dtype=float), t0
    for tr in rec:
        sub = tr - t_cur
        # at least one substep whenever the record time moves, even by
        # less than h/2
        m = max(int(sub != 0), int(round(abs(sub) / abs(h))))
        hh = sub / m if m else 0.0
        for _ in range(m):
            y_cur = _rk4_step(f, t_cur, y_cur, hh)
            t_cur += hh
        out.append(y_cur.copy())
    if record_times is None:
        return out[-1]
    return np.array(rec), np.array(out)


def _block_nodes(d: int) -> int:
    """Nodes per block of linear_scan's blocked route for states of size d:
    b = 64 // d, so the plan's table is about 64 wide, or 0 below 4 nodes
    (d > 16), whose scans take the chunked route instead."""
    b = 64 // d if d else 0
    return b if b >= 4 else 0


@dataclass(frozen=True)
class ScanPlan:
    """Tables of linear_scan for one (d, d) matrix E and the forcing taps
    (P, Q) of x_j = E x_{j-1} + P u_{j-1} + Q u_j.

    b is the number of nodes per block of the blocked route, 0 when the
    route does not apply to this d (the plan then carries only E and the
    taps).  The taps are kept as P^T and Q^T, contiguous, the operands of
    the chunked route's two gemms (a transposed view takes NumPy's slower
    strided path).  `table` is the ((b+1)*d, b*d) matrix whose block (l, i) is
    (E^{i-l+1} Q + E^{i-l} P)^T, a power below 0 counting as 0, without
    the Q term in block row l = 0: a row of the b + 1 inputs
    u_{k-1}, ..., u_{k+b-1} times `table` is the scan of the b nodes
    k, ..., k+b-1 from x_{k-1} = 0.  `carry` is the (d, b*d) row of blocks
    (E^{i+1})^T taking the state before a block to each of its nodes, and
    `Eb` holds E^b, E^{2b}, E^{4b}, ...: the steps of the doubling scan over
    the block ends, squared once and kept as longer grids need them.
    """

    E: np.ndarray
    b: int
    PT: np.ndarray
    QT: np.ndarray
    table: np.ndarray | None = None
    carry: np.ndarray | None = None
    Eb: list = field(default_factory=list)


def scan_plan(E, P, Q) -> ScanPlan:
    """The ScanPlan of E with the forcing taps P and Q, all (d, d)
    matrices; build it once to reuse it over many scans.  The taps 0 and I
    give the plain recurrence x_j = E x_{j-1} + u_j."""
    E = np.asarray(E, dtype=float)
    if E.ndim != 2 or E.shape[0] != E.shape[1]:
        raise ValueError(f"expected a square step matrix, got shape {E.shape}")
    d = E.shape[0]
    P, Q = np.asarray(P, dtype=float), np.asarray(Q, dtype=float)
    if P.shape != (d, d) or Q.shape != (d, d):
        raise ValueError(f"expected forcing taps of size {d}, got shapes "
                         f"{P.shape} and {Q.shape}")
    b = _block_nodes(d)
    PT, QT = np.ascontiguousarray(P.T), np.ascontiguousarray(Q.T)
    if not b:
        return ScanPlan(E, 0, PT, QT)
    # powers[k] = (E^k)^T; a diagonal E keeps exact zeros off the diagonal
    powers = np.empty((b + 1, d, d))
    powers[0], powers[1] = np.eye(d), E.T
    k = 1
    while k < b:
        n = min(k, b - k)
        powers[k + 1:k + 1 + n] = powers[1:1 + n] @ powers[k]
        k += n
    # tap[k] = (E^k Q + E^{k-1} P)^T is the weight of u_{j-k} in x_j, and
    # head[i] = (E^i P)^T that of the input just before a block in its
    # node i, which the block's scan from 0 does not see through Q
    head = P.T @ powers[:b]
    tap = Q.T @ powers[:b]
    tap[1:] += head[:-1]
    l, i = np.triu_indices(b + 1, -1, b)
    keep = l > 0
    table = np.zeros((b + 1, d, b, d))
    table[l[keep], :, i[keep], :] = tap[i[keep] - l[keep] + 1]
    table[0] = head.transpose(1, 0, 2)
    carry = powers[1:].transpose(1, 0, 2).reshape(d, b * d)
    return ScanPlan(E, b, PT, QT, table.reshape((b + 1) * d, b * d), carry,
                    [powers[b].T.copy()])


def _doubling_scan(powers: list, rows: np.ndarray) -> None:
    """The constant-matrix scan in place on rows (m, r, d), by recursive
    doubling: about log2(m) passes, for the short recurrences over block
    and chunk ends.  powers starts with the step matrix E; the squares
    E^2, E^4, ... a pass needs are appended to it once, so a list kept
    across calls squares no matrix again."""
    m, d = rows.shape[0], rows.shape[-1]
    s, k = 1, 0
    while s < m:
        rows[s:] += (rows[:-s].reshape(-1, d) @ powers[k].T
                     ).reshape(m - s, -1, d)
        s *= 2
        k += 1
        if s < m and k == len(powers):
            powers.append(powers[-1] @ powers[-1])


def _blocked_scan(plan: ScanPlan, rows: np.ndarray,
                  x0: np.ndarray) -> np.ndarray:
    """The scan of rows (m, r, d) from x0 (r, d) with the plan's taps,
    returned as a new array."""
    m, r, d = rows.shape
    b = plan.b
    nb = -(-(m - 1) // b)
    # node k*b + i + 1 of block k is the window of inputs k*b .. k*b + b
    # times the table: windows of b + 1 rows, b rows apart, of each
    # recurrence's contiguous (nb*b + 1, d) inputs
    n = nb * b + 1
    U = np.zeros((r, n, d))
    U[:, :m] = rows.swapaxes(0, 1)
    step = U.itemsize
    win = np.ndarray((r, nb, (b + 1) * d), buffer=U,
                     strides=(n * d * step, b * d * step, step))
    Z = (win @ plan.table).reshape(r, nb, b, d)
    # the state before block k: z_0 = x0, z_k = E^b z_{k-1} + (scan of
    # block k - 1 alone at its end)
    ends = np.empty((nb, r, d))
    ends[0] = x0
    ends[1:] = Z[:, :-1, -1].swapaxes(0, 1)
    _doubling_scan(plan.Eb, ends)
    Z += (ends.reshape(-1, d) @ plan.carry).reshape(nb, r, b, d).swapaxes(0, 1)
    out = np.empty((m, r, d))
    out[0] = x0
    out[1:] = Z.reshape(r, nb * b, d)[:, :m - 1].swapaxes(0, 1)
    return out


def _chunked_scan(Q: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The scan of rows (m, r, d), returned as a new array, with the
    transposed step matrices Q: one (d, d) matrix E^T, or a stack
    (m - 1, d, d) whose Q[j] = E_j^T takes node j to node j + 1.

    The nodes fall into K chunks of c = ceil(sqrt(m)) (the last one padded
    with zeros), laid out so that position i of every chunk is one slab.
    The recurrence steps inside all chunks at once, one matmul per
    position, where the rows of a constant E stack into a single gemm.
    Step stacks carry d extra rows per chunk, started at the step into the
    chunk, which the same matmuls turn into the chunk's transfer matrices.
    The K - 1 chunk ends then form a short recurrence: a doubling scan with
    E^c, or this scan again on the stacked transfers.  Each true chunk end
    finally enters the next chunk through the powers of E, one matmul per
    position, or through the stored transfers in a single batched matmul.
    """
    m, r, d = rows.shape
    c = math.isqrt(m - 1) + 1
    K, full = -(-m // c), m // c
    stack = Q.ndim == 3
    t = d if stack else 0
    # W[i, k] holds node k*c + i: its r rows, then its t transfer rows
    W = np.zeros((c, K, r + t, d))
    Wk = W.swapaxes(0, 1)
    Wk[:full, :, :r] = rows[:full * c].reshape(full, c, r, d)
    if full < K:
        Wk[full, :m - full * c, :r] = rows[full * c:]
    if stack:
        P = np.zeros((K * c, d, d))
        P[1:m] = Q
        P = P.reshape(K, c, d, d).swapaxes(0, 1)
        W[0, 1:, r:] = P[0, 1:]
    else:
        P = np.broadcast_to(Q, (c, 1, d, d))
    grid = W.reshape(c, P.shape[1], -1, d)
    for i in range(1, c):
        grid[i] += grid[i - 1] @ P[i]
    Z, T = W[:, :, :r], W[:, :, r:]
    if K > 1:
        ends = Z[-1, :-1].copy()
        if stack:
            ends = _chunked_scan(T[-1, 1:-1], ends)
            Z[:, 1:] += ends @ T[:, 1:]
        else:
            _doubling_scan([np.linalg.matrix_power(Q, c).T], ends)
            carry = ends.reshape(-1, d)
            for i in range(c):
                carry = carry @ Q
                Z[i, 1:] += carry.reshape(K - 1, r, d)
    return Z.swapaxes(0, 1).reshape(K * c, r, d)[:m]


def linear_scan(E, X: np.ndarray, x0=None) -> np.ndarray:
    """x_0 = x0 (X[0] when x0 is None), then with a ScanPlan's forcing taps
    x_j = E x_{j-1} + P X[j-1] + Q X[j], or with a stack of step matrices
    x_j = E_j x_{j-1} + X[j], along axis 0; X is left intact.

    E is a ScanPlan (scan_plan(E, P, Q), whose tables are reused) or a
    stack of m - 1 matrices, E[j - 1] taking x_{j-1} to x_j.  The states
    lie along the last axis of X; axes in between hold independent
    recurrences with the same matrices, and x0 broadcasts against X[0].

    A plan with b = 64 // d >= 4 on m >= 2b nodes takes the blocked route:
    nodes 1 .. m-1 fall into blocks of b, one gemm of the plan's
    ((b+1)*d, b*d) table with a strided window of b + 1 input rows per
    block scans every block at once, taps included, a doubling scan with
    the plan's powers of E^b over the block ends gives the carries, and a
    second gemm adds carry times E^{i+1} at node i of each block.  That is
    O(m*b*d^2) work in two passes over the grid; a plan costs b small
    matmuls, so keep it when the same E is scanned repeatedly.

    Otherwise (d > 16, few nodes, or step stacks) the chunked route: a
    plan's taps first form the plain inputs P X[j-1] + Q X[j] in two gemms,
    then the nodes fall into about sqrt(m) chunks of about sqrt(m) nodes,
    a sequential pass steps inside every chunk at once, the short
    recurrence over the chunk ends gives the carries, and a second pass
    adds them.  That is O(m*d^2) work for a plan and O(m*d^3) for a stack
    (the transfer matrix of every chunk), with no log(m) factor, in about
    2*sqrt(m) matmuls.
    """
    X = np.asarray(X, dtype=float)
    m, d = X.shape[0], X.shape[-1]
    plan = E if isinstance(E, ScanPlan) else None
    if plan is not None:
        E = plan.E
        if E.shape != (d, d):
            raise ValueError(f"expected one step matrix of size {d}, got "
                             f"shape {E.shape}")
    elif np.shape(E) != (m - 1, d, d):
        raise ValueError(f"expected a ScanPlan or {m - 1} step matrices of "
                         f"size {d}, got shape {np.shape(E)}")
    if X.size == 0:
        return X.copy()
    rows = X.reshape(m, -1, d)
    if x0 is None:
        start = rows[0]
    else:
        # a scalar or one state broadcasts over the recurrences as it is
        start = np.asarray(x0, dtype=float)
        if start.ndim > 1:
            start = start.reshape(-1, d)
    if plan is not None and plan.b and m >= 2 * plan.b:
        return _blocked_scan(plan, rows, start).reshape(X.shape)
    if plan is not None or x0 is not None:
        inputs = np.empty(rows.shape)
        inputs[0] = start
        if plan is not None:
            # the taps on the (m - 1) * r input rows, as two 2-D gemms
            flat, r = rows.reshape(-1, d), rows.shape[1]
            forced = inputs[1:].reshape(-1, d)
            np.matmul(flat[:-r], plan.PT, out=forced)
            forced += flat[r:] @ plan.QT
        else:
            inputs[1:] = rows[1:]
        rows = inputs
    return _chunked_scan(np.swapaxes(E, -1, -2), rows).reshape(X.shape)


def rk4_affine(A: np.ndarray, g: np.ndarray, y0: np.ndarray,
               h: float) -> np.ndarray:
    """Classical RK4 for y' = A(t) y + g(t) on a uniform grid of m nodes,
    one step per interval, with A and g linear between the nodes; returns y
    at every node, y[0] = y0.

    A has shape (m, d, d) and g (m, d).  A negative h steps backward in
    time (pass the node arrays in the order of the steps).  With A and g
    frozen, each step is an affine map y_{j+1} = M_j y_j + c_j; the
    augmented maps [M_j | c_j] come from three batched matmuls, and
    linear_scan solves the recurrence with the stack of M_j on its chunked
    route: O(m*d^3) work for the chunk transfer matrices, in about
    sqrt(m) batched matmuls.
    """
    m, d = g.shape
    Am = 0.5 * (A[:-1] + A[1:])
    # stage k as an affine function of y: [K_k | c_k], k_k = K_k y + c_k
    K1 = np.concatenate([A[:-1], g[:-1, :, None]], axis=2)
    Kmid = np.concatenate([Am, 0.5 * (g[:-1] + g[1:])[:, :, None]], axis=2)
    K2 = Kmid + (0.5 * h) * (Am @ K1)
    K3 = Kmid + (0.5 * h) * (Am @ K2)
    K4 = np.concatenate([A[1:], g[1:, :, None]], axis=2) + h * (A[1:] @ K3)
    S = (h / 6.0) * (K1 + 2 * K2 + 2 * K3 + K4)
    X = np.empty((m, d))
    X[0] = y0
    X[1:] = S[:, :, d]
    return linear_scan(S[:, :, :d] + np.eye(d), X)


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

    def operator_at(self, t: float) -> np.ndarray:
        lo, hi = self.hull
        if t < lo - 1e-9 or t > hi + 1e-9:
            raise ValueError(f"time {t} outside timeline hull [{lo}, {hi}]")
        t = min(max(t, lo), hi)
        if self._matrices is not None:
            return _lerp_nodes(self.times, self._matrices, t)
        return self._model.jacobian(_lerp_nodes(self.times, self._states, t))


def _lerp_nodes(times: np.ndarray, values: np.ndarray, t: float) -> np.ndarray:
    """values (one entry per node along axis 0) linearly interpolated at t:
    np.interp on every component at once, exact at the nodes and clamped to
    the end values outside [times[0], times[-1]]."""
    t = min(max(t, times[0]), times[-1])
    j = int(np.searchsorted(times, t, side="right")) - 1
    if j >= len(times) - 1:
        return values[-1].copy()
    slope = (values[j + 1] - values[j]) / (times[j + 1] - times[j])
    return slope * (t - times[j]) + values[j]


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


def _contract(sweep: Callable, x, increment: Callable[..., float],
              tol: float, max_iter: int) -> tuple:
    """Iterate x <- sweep(x) until increment(sweep(x) - x) is at most tol;
    returns the last iterate and the list of per-sweep increments.

    Raises NoContractionError once three consecutive sweeps above tol did
    not shrink the increment, or when max_iter sweeps end above tol, and
    ValueError for max_iter < 1 or a tol that is negative or NaN.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not tol >= 0:
        raise ValueError(f"tol must be non-negative, got {tol}")
    incs: list[float] = []
    n_bad = 0
    for _ in range(max_iter):
        new = sweep(x)
        inc = increment(new - x)
        x = new
        if incs and incs[-1] > 0:
            n_bad = n_bad + 1 if inc / incs[-1] >= 1.0 else 0
        incs.append(inc)
        if inc <= tol:
            return x, incs
        if n_bad >= 3:
            raise NoContractionError(
                f"no contraction: the increment did not shrink in 3 "
                f"sweeps (last {inc:.3e})")
    raise NoContractionError(
        f"fixed point not reached in {max_iter} sweeps "
        f"(last increment {inc:.3e})")


def _contraction_factor(incs: list) -> float:
    """The largest ratio of consecutive increments of _contract (0 with one
    sweep), reported as contraction_factor.  It is an observed ratio, not a
    bound on the contraction constant: a run that converges may report one
    above 1."""
    ratios = [b / a for a, b in zip(incs, incs[1:]) if a > 0]
    return max(ratios) if ratios else 0.0


def picard_solve(model, v0, T: float, dt: float, max_iter: int = 40,
                 tol: float = 1e-10) -> tuple[OrbitGrid, dict]:
    """Fixed point of v(t) = U(t,0)v0 + int_0^t U(t,s) f(v(s)) ds on [0, T].

    Each sweep freezes A(t) = DF(v_prev(t)) along the previous iterate and
    integrates the linear system v' = A(t)v + f(v_prev(t)) with
    f(v) = F(v) - DF(v)v.  Diagnostics report the iterations, the last
    increment and contraction_factor, the largest ratio of consecutive
    sweep increments (_contraction_factor).  Raises ValueError for a T or
    dt that is not a positive finite number, and NoContractionError when
    the sweeps stop above tol.
    """
    for name, x in (("T", T), ("dt", dt)):
        if not (math.isfinite(x) and x > 0):
            raise ValueError(f"{name} must be a positive finite number, "
                             f"got {x}")
    v0 = as_state(v0, model.dimension)
    m = max(2, int(round(T / dt)) + 1)
    times = np.linspace(0.0, T, m)
    h = times[1] - times[0]
    start = np.tile(v0, (m, 1))

    def frozen(S):
        """A = DF and g = F - A v at the states S (rows)."""
        A = model.jacobian_many(S)
        return A, model.field_many(S) - (A @ S[:, :, None])[:, :, 0]

    def sweep(S):
        if S is start:
            # every node of the first iterate is v0
            A, g = (np.broadcast_to(x, (m,) + x.shape[1:])
                    for x in frozen(v0[None, :]))
        else:
            A, g = frozen(S)
        return rk4_affine(A, g, v0, h)

    states, incs = _contract(
        sweep, start, lambda diff: float(np.max(np.linalg.norm(diff, axis=1))),
        tol, max_iter)
    return OrbitGrid(times, states), {
        "contraction_factor": _contraction_factor(incs),
        "iterations": len(incs),
        "final_increment": incs[-1]}


def variational_flow(model, orbit: OrbitGrid, dt: float) -> np.ndarray:
    """Integrate the matrix linearization U' = DF(u(t))U, U(first)=I, along
    an orbit, returning U at every grid node (shape m x n x n).

    The orbit is validated by the centered-difference trajectory residual,
    whose natural size is O(grid_dt^2): it is refused above
    10 grid_dt^2 max(max|F|, 1) max(max|u|, 1) + 1e-9.
    """
    m, n = orbit.states.shape
    if m < 3:
        raise ValueError("orbit too short for a variational flow")
    gdt = orbit.dt
    scale = max(1.0, float(np.abs(orbit.states).max()))
    F = model.field_many(orbit.states)
    fmax = float(np.linalg.norm(F, axis=1).max())
    residual_tol = 10.0 * gdt ** 2 * max(fmax, 1.0) * scale + 1e-9
    deriv = np.gradient(orbit.states, orbit.times, axis=0)
    worst = float(np.linalg.norm(deriv - F, axis=1)[1:-1].max())
    if worst > residual_tol:
        raise ValueError(
            f"not a trajectory: residual {worst:.3e} > {residual_tol:.3e}")

    tl = Timeline.from_orbit(model, orbit)

    def f(t, yflat):
        return (tl.operator_at(t) @ yflat.reshape(n, n)).reshape(-1)

    _, flat = integrate_rk4(f, np.eye(n).reshape(-1), orbit.times[0],
                            orbit.times[-1], dt, record_times=orbit.times)
    return flat.reshape(m, n, n)
