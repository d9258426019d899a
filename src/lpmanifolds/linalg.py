"""Spectral splitting, Lyapunov quadratic forms, and non-autonomous evolution.

Splits the equilibrium linearization into unstable/center/stable blocks in
split coordinates y = Binv (u - eq) from ordered real Schur bases, builds
the quadratic forms L solving A^T L + L A - 2 w L = -I that certify
dissipativity at rate w, integrates linear systems v' = A(t)v along stored
trajectories (the variational flow and Picard's frozen sweeps), and
iterates contractions to their fixed points under one stopping rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg as sla

from .graded import OrbitGrid, _trajectory_residual, as_state

__all__ = [
    "AmbiguousSplitError",
    "NoContractionError",
    "SpectralSplitting",
    "LyapunovForm",
    "eigen_split",
    "hamiltonian_symmetry_check",
    "lyapunov_form",
    "dissipativity_check",
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


def _positive_finite(name: str, x: float) -> None:
    """Refuse (ValueError) an x that is not a positive finite number."""
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"{name} must be a positive finite number, got {x}")


def _as_matrix(A) -> np.ndarray:
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix contains non-finite entries")
    return M


@dataclass
class SpectralSplitting:
    """Eigen-decomposition of a linearization into +/0/- blocks with rates.

    omega_plus is a strict lower bound on Re(lambda) over X_+, omega_minus a
    bound above every complement eigenvalue; lambda_plus / lambda_plus_max are
    the realized extreme unstable rates, rest_max_re the fastest complement
    rate.  The dichotomy window used by the Lyapunov-Perron iteration is the
    open interval (rest_max_re, lambda_plus).

    The split coordinates are y = Binv (u - eq): the first dim_plus columns
    of B span X_+ and the others its complement, so the spectral projector
    onto X_+ is B[:, :dim_plus] @ Binv[:dim_plus].  The columns of each block
    are orthonormal, but B is not orthogonal when A is not normal.
    """

    eigenvalues: np.ndarray
    blocks: list[str]            # '+', '0' or '-' per eigenvalue
    B: np.ndarray
    Binv: np.ndarray
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
    def realized_gap(self) -> float:
        return self.lambda_plus - self.rest_max_re


def eigen_split(A, gap: float) -> SpectralSplitting:
    """Split A into X_+ (Re > gap) and the complement (Re <= gap).

    Each block's basis is the leading Schur vectors of an ordered real Schur
    form, the one with that block first, so B = [basis_plus, basis_rest]
    block-diagonalizes A to roundoff and its projectors commute with A.  An
    eigenvalue with | |Re| - gap | < 0.1*gap is refused as ambiguous, and a
    gap that is not a positive finite number with ValueError.
    """
    M = _as_matrix(A)
    _positive_finite("gap", gap)
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
    elif dim_plus == n:
        basis_plus = np.eye(n)
        basis_rest = np.zeros((n, 0))
    else:
        _, Z, sdim = sla.schur(M, output='real', sort=lambda re, im: re > gap)
        if sdim != dim_plus:
            raise AmbiguousSplitError(
                f"Schur reordering found {sdim} unstable eigenvalues, "
                f"eigvals found {dim_plus}; adjust gap")
        basis_plus = Z[:, :sdim]
        _, Z2, sdim2 = sla.schur(M, output='real',
                                 sort=lambda re, im: re <= gap)
        if sdim2 != n - dim_plus:
            raise AmbiguousSplitError(
                "complementary Schur reordering inconsistent; adjust gap")
        basis_rest = Z2[:, :sdim2]
    # deterministic orientation: largest-magnitude entry of each column >= 0
    for Bmat in (basis_plus, basis_rest):
        for j in range(Bmat.shape[1]):
            k = int(np.argmax(np.abs(Bmat[:, j])))
            if Bmat[k, j] < 0:
                Bmat[:, j] *= -1.0
    B = np.hstack([basis_plus, basis_rest])

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
        B=B, Binv=np.linalg.inv(B),
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

def integrate_rk4(f, y0: np.ndarray, t0: float, t1: float,
                  dt: float) -> np.ndarray:
    """Fixed-step classical RK4 from t0 to t1 (either direction), in
    ceil(|t1 - t0| / dt) equal steps; returns the state at t1.  Raises
    ValueError for a dt that is not a positive finite number.
    """
    _positive_finite("dt", dt)
    y = np.array(y0, dtype=float)
    span = t1 - t0
    if span == 0:
        return y
    nsteps = max(1, int(math.ceil(abs(span) / dt)))
    h = span / nsteps
    t = t0
    for _ in range(nsteps):
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return y


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

    b is the number of nodes per block of the blocked route (_block_nodes(d),
    or fewer in a plan of block ends), 0 when the route does not apply to
    this d (the plan then carries only E and the taps).  The taps are kept
    as P^T and Q^T, contiguous, the operands of the chunked route's two
    gemms (a transposed view takes NumPy's slower strided path).  `table`
    is the ((b+1)*d, b*d) matrix whose block (l, i) is
    (E^{i-l+1} Q + E^{i-l} P)^T, a power below 0 counting as 0, without
    the Q term in block row l = 0: a row of the b + 1 inputs
    u_{k-1}, ..., u_{k+b-1} times `table` is the scan of the b nodes
    k, ..., k+b-1 from x_{k-1} = 0.  `carry` is the (d, b*d) row of blocks
    (E^{i+1})^T taking the state before a block to each of its nodes.
    `ends` keeps the plans that scan the block or chunk ends of the grids
    scanned so far (_ends_plan): plain recurrences, which keep no taps.
    """

    E: np.ndarray
    b: int
    PT: np.ndarray | None = None
    QT: np.ndarray | None = None
    table: np.ndarray | None = None
    carry: np.ndarray | None = None
    ends: dict = field(default_factory=dict)


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
    return _plan(E, _block_nodes(d), P, Q)


def _plan(E: np.ndarray, b: int, P=None, Q=None) -> ScanPlan:
    """scan_plan(E, P, Q) in blocks of b nodes, without its checks; without
    P and Q, the plan of an ends scan, which keeps no taps."""
    d = E.shape[0]
    taps = () if P is None else (np.ascontiguousarray(P.T),
                                 np.ascontiguousarray(Q.T))
    if not b:
        return ScanPlan(E, 0, *taps)
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
    if P is None:
        head, tap = np.zeros((b, d, d)), powers[:b]
    else:
        head, tap = P.T @ powers[:b], Q.T @ powers[:b]
        tap[1:] += head[:-1]
    l, i = np.triu_indices(b + 1, -1, b)
    keep = l > 0
    table = np.zeros((b + 1, d, b, d))
    table[l[keep], :, i[keep], :] = tap[i[keep] - l[keep] + 1]
    table[0] = head.transpose(1, 0, 2)
    carry = powers[1:].transpose(1, 0, 2).reshape(d, b * d)
    return ScanPlan(E, b, *taps, table=table.reshape((b + 1) * d, b * d),
                    carry=carry)


def _ends_plan(plan: ScanPlan, s: int, n: int) -> ScanPlan:
    """The plan of E^s that scans the n ends of plan's blocks or chunks of
    s nodes, kept on plan.  Its blocks hold at most n - 1 nodes, so its
    table holds no power of E past the grid's, where a growing E overflows."""
    key = (s, min(plan.b, n - 1))
    if key not in plan.ends:
        plan.ends[key] = _plan(np.linalg.matrix_power(plan.E, s), key[1])
    return plan.ends[key]


def _blocked_scan(plan: ScanPlan, rows: np.ndarray, x0: np.ndarray,
                  out: np.ndarray) -> None:
    """The scan of rows (m, r, d) from x0 (r, d) with the plan's taps,
    written into out (m, r, d), which may be rows itself."""
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
    # block k - 1 alone at its end), the plain recurrence of E^b, which
    # the blocked scan of its own plan solves
    ends = np.empty((nb, r, d))
    ends[:1] = x0  # a grid of one node has no block
    ends[1:] = Z[:, :-1, -1].swapaxes(0, 1)
    if nb > 1:
        _blocked_scan(_ends_plan(plan, b, nb), ends, ends[0], ends)
    Z += (ends.reshape(-1, d) @ plan.carry).reshape(nb, r, b, d).swapaxes(0, 1)
    out[0] = x0
    out[1:] = Z.reshape(r, nb * b, d)[:, :m - 1].swapaxes(0, 1)


def _chunked_scan(E, rows: np.ndarray, out: np.ndarray) -> None:
    """The scan of rows (m, r, d), written into out (m, r, d), which may be
    rows itself, with the step matrix of a ScanPlan E (the rows already
    hold its taps' forcing) or with a stack E (m - 1, d, d) of transposed
    step matrices: E[j] = E_j^T, E_j taking node j to node j + 1.

    The nodes fall into K chunks of c = ceil(sqrt(m)) (the last one padded
    with zeros), laid out so that position i of every chunk is one slab.
    The recurrence steps inside all chunks at once, one matmul per
    position, where the rows of a constant E stack into a single gemm.
    Step stacks carry d extra rows per chunk, started at the step into the
    chunk, which the same matmuls turn into the chunk's transfer matrices.
    The K - 1 chunk ends then form a short recurrence, which this scan
    solves again: with the plan of E^c kept on the plan, or with the
    stacked transfers.  Each true chunk end finally enters the next chunk
    through the powers of E, one matmul per position, or through the
    stored transfers in a single batched matmul.
    """
    m, r, d = rows.shape
    c = math.isqrt(m - 1) + 1
    K, full = -(-m // c), m // c
    stack = not isinstance(E, ScanPlan)
    t = d if stack else 0
    # W[i, k] holds node k*c + i: its r rows, then its t transfer rows
    W = np.zeros((c, K, r + t, d))
    Wk = W.swapaxes(0, 1)
    Wk[:full, :, :r] = rows[:full * c].reshape(full, c, r, d)
    if full < K:
        Wk[full, :m - full * c, :r] = rows[full * c:]
    if stack:
        P = np.zeros((K * c, d, d))
        P[1:m] = E
        P = P.reshape(K, c, d, d).swapaxes(0, 1)
        W[0, 1:, r:] = P[0, 1:]
    else:
        Q = E.E.T
        P = np.broadcast_to(Q, (c, 1, d, d))
    grid = W.reshape(c, P.shape[1], -1, d)
    for i in range(1, c):
        grid[i] += grid[i - 1] @ P[i]
    Z, T = W[:, :, :r], W[:, :, r:]
    if K > 1:
        ends = Z[-1, :-1].copy()
        if stack:
            _chunked_scan(T[-1, 1:-1], ends, ends)
            Z[:, 1:] += ends @ T[:, 1:]
        else:
            _chunked_scan(_ends_plan(E, c, K - 1), ends, ends)
            carry = ends.reshape(-1, d)
            for i in range(c):
                carry = carry @ Q
                Z[i, 1:] += carry.reshape(K - 1, r, d)
    # node k*c + i goes back from W[i, k]: the full chunks, then the rest
    out[:full * c].reshape(full, c, r, d)[...] = Z[:, :full].swapaxes(0, 1)
    if full < K:
        out[full * c:] = Z[:m - full * c, full]


def linear_scan(E, X: np.ndarray, x0=None) -> np.ndarray:
    """x_0 = x0 (X[0] when x0 is None), then with a ScanPlan's forcing taps
    x_j = E x_{j-1} + P X[j-1] + Q X[j], or with a stack of step matrices
    x_j = E_j x_{j-1} + X[j], along axis 0; X is left intact.

    E is a ScanPlan (scan_plan(E, P, Q), whose tables are reused) or a
    stack of m - 1 matrices, E[j - 1] taking x_{j-1} to x_j.  The states
    lie along the last axis of X; axes in between hold independent
    recurrences with the same matrices, and x0 broadcasts against X[0].

    A plan with b = 64 // d >= 4 (d <= 16) takes the blocked route: nodes
    1 .. m-1 fall into blocks of b, and one gemm of the plan's table with a
    strided window of b + 1 input rows per block scans every block at once,
    taps included.  The block ends form the plain recurrence of E^b, which
    the same route scans with a plan of E^b kept on the plan, about
    log(m)/log(b) levels deep, and a second gemm adds each carry times
    E^{i+1} at node i of its block: O(m*b*d^2) work.  A plan costs b small
    matmuls, so keep it when the same E is scanned repeatedly.

    Otherwise (d > 16, or step stacks) the chunked route: a plan's taps
    first form the plain inputs P X[j-1] + Q X[j] in two gemms; the nodes
    fall into about sqrt(m) chunks of about sqrt(m) nodes, one pass steps
    inside every chunk at once, the same route scans the chunk ends (with
    a plan of E^c kept on the plan, or with the chunks' transfer matrices),
    and a second pass adds the carries: O(m*d^2) work for a plan and
    O(m*d^3) for a stack, in about 2*sqrt(m) matmuls.
    """
    X = np.asarray(X, dtype=float)
    out = np.empty(X.shape)
    _scan_into(E, X, x0, out)
    return out


def _scan_into(E, X: np.ndarray, x0, out: np.ndarray) -> None:
    """linear_scan(E, X, x0) written into out, an array of X's shape (for
    instance a slice of the last axis of a wider array, read backward or
    not) whose axes between the first and the last reshape without a copy,
    so the kernels store their rows in the caller's array."""
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
        return
    rows = X.reshape(m, -1, d)
    dest = out.reshape(rows.shape)
    if x0 is None:
        start = rows[0]
    else:
        # a scalar or one state broadcasts over the recurrences as it is
        start = np.asarray(x0, dtype=float)
        if start.ndim > 1:
            start = start.reshape(-1, d)
    if plan is not None and plan.b:
        _blocked_scan(plan, rows, start, dest)
        return
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
    _chunked_scan(np.swapaxes(E, -1, -2) if plan is None else plan, rows,
                  dest)


def rk4_affine(A: np.ndarray, g: np.ndarray, y0: np.ndarray,
               h: float) -> np.ndarray:
    """Classical RK4 for y' = A(t) y + g(t) on a uniform grid of m nodes,
    one step per interval, with A and g linear between the nodes; returns y
    at every node, y[0] = y0.

    A has shape (m, d, d) and g (m, d).  y0 is one state (d,), or r states
    (r, d) as rows, which run as r recurrences through the same step maps
    and come back as (m, r, d).  A negative h steps backward in time (pass
    the node arrays in the order of the steps).  With A and g frozen, each
    step is an affine map y_{j+1} = M_j y_j + c_j; the augmented maps
    [M_j | c_j] come from three batched matmuls, and linear_scan solves the
    recurrence with the stack of M_j on its chunked route: O(m*d^3) work
    for the chunk transfer matrices, in about sqrt(m) batched matmuls.
    """
    m, d = g.shape
    S = _rk4_step_maps(A, g, h)
    y0 = np.asarray(y0, dtype=float)
    X = np.empty((m,) + y0.shape)
    X[0] = y0
    # every recurrence takes the same c_j
    X[1:] = S[:, :, d].reshape((m - 1,) + (1,) * (y0.ndim - 1) + (d,))
    return linear_scan(S[:, :, :d] + np.eye(d), X)


def _rk4_step_maps(A: np.ndarray, g: np.ndarray, h: float) -> np.ndarray:
    """The (m - 1, d, d + 1) increments h/6 (k1 + 2 k2 + 2 k3 + k4) of
    rk4_affine's steps as affine maps [M_j - I | c_j] of y_j.  The stages
    are freed on return, before the scan."""
    Am = 0.5 * (A[:-1] + A[1:])
    # stage k as an affine function of y: [K_k | c_k], k_k = K_k y + c_k
    K1 = np.concatenate([A[:-1], g[:-1, :, None]], axis=2)
    Kmid = np.concatenate([Am, 0.5 * (g[:-1] + g[1:])[:, :, None]], axis=2)
    K2 = Kmid + (0.5 * h) * (Am @ K1)
    K3 = Kmid + (0.5 * h) * (Am @ K2)
    K4 = np.concatenate([A[1:], g[1:, :, None]], axis=2) + h * (A[1:] @ K3)
    return (h / 6.0) * (K1 + 2 * K2 + 2 * K3 + K4)


def _contract(sweep: Callable, x, increment: Callable[..., float],
              tol: float, max_iter: int) -> tuple:
    """Iterate x <- sweep(x) until increment(sweep(x), x) is at most tol;
    returns the last iterate and the list of per-sweep increments.  An
    iterate need not be an array: increment measures new against old.

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
        inc = increment(new, x)
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
    _positive_finite("T", T)
    _positive_finite("dt", dt)
    v0 = as_state(v0, model.dimension)
    m = max(2, int(round(T / dt)) + 1)
    times = np.linspace(0.0, T, m)
    h = times[1] - times[0]
    start = np.tile(v0, (m, 1))

    def frozen(S):
        """A = DF and g = F - A v at the states S (rows)."""
        A = model.jacobian(S)
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
        sweep, start,
        lambda new, old: float(np.max(np.linalg.norm(new - old, axis=1))),
        tol, max_iter)
    return OrbitGrid(times, states), {
        "contraction_factor": _contraction_factor(incs),
        "iterations": len(incs),
        "final_increment": incs[-1]}


def variational_flow(model, orbit: OrbitGrid) -> np.ndarray:
    """Integrate the matrix linearization U' = DF(u(t))U, U(first)=I, along
    an orbit, returning U at every grid node (shape m x n x n).

    One batched Jacobian at the orbit's nodes and one rk4_affine run with
    zero forcing, one RK4 step per interval and DF linear between the
    nodes; the columns of U are n recurrences through the same step maps.
    The orbit must have at least three nodes, uniformly spaced to within
    1e-8 of its step (ValueError otherwise).  It is validated by the
    centred-difference trajectory residual, whose natural size is
    O(dt^2), about |u^(3)| dt^2 / 6: it is refused above
    10 dt^2 (max(max|F|, 1) max(max|u|, 1) + max|DF DF F| / 6) + 1e-9,
    with u^(3) taken as DF DF F from the Jacobians that the flow takes.
    """
    m, n = orbit.states.shape
    if m < 3:
        raise ValueError("orbit too short for a variational flow")
    h = orbit.dt
    spacing = np.abs(np.diff(orbit.times) - h).max()
    if spacing > 1e-8 * h:
        raise ValueError(f"orbit times are not uniformly spaced: a step "
                         f"differs from the first, {h:.6g}, by {spacing:.3e}")
    scale = max(1.0, float(np.abs(orbit.states).max()))
    F = model.field_many(orbit.states)
    J = model.jacobian(orbit.states)
    fmax = float(np.linalg.norm(F, axis=1).max())
    third = float(np.linalg.norm(J @ (J @ F[:, :, None]), axis=1).max())
    residual_tol = 10.0 * h ** 2 * (max(fmax, 1.0) * scale
                                    + third / 6.0) + 1e-9
    worst = _trajectory_residual(orbit.states, F, h)
    if worst > residual_tol:
        raise ValueError(
            f"not a trajectory: residual {worst:.3e} > {residual_tol:.3e}")
    # row i of Y[j] is U_j e_i, the i-th column of U_j
    Y = rk4_affine(J, np.zeros((m, n)), np.eye(n), h)
    return Y.swapaxes(1, 2)
