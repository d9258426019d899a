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
import warnings
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
        rest_max_re=rest_max_re)


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
    the Bartels-Stewart (Schur) method, as
    scipy.linalg.solve_continuous_lyapunov solves it, on one real Schur form
    of (A - omega I)^T, whose largest diagonal entry plus omega is also the
    abscissa that the refusal names.
    """
    M = _as_matrix(A)
    n = M.shape[0]
    # B^T L + L B = -I with B = A - omega I; the diagonal of the real Schur
    # form holds the real parts of the eigenvalues, a 2 x 2 block's twice
    R, U = sla.schur((M - omega * np.eye(n)).T, output='real')
    abscissa = np.diag(R).max() + omega
    if omega <= abscissa:
        raise ValueError(
            f"spectral abscissa violated: omega={omega} <= max Re sigma(A)="
            f"{abscissa}")
    Q = -np.eye(n)
    F = U.conj().T.dot(Q.dot(U))
    trsyl = sla.get_lapack_funcs('trsyl', (R, F))
    Y, scale, info = trsyl(R, R, F, tranb='T')
    if info < 0:
        raise ValueError('?TRSYL exited with the internal error "illegal '
                         f'value in argument number {-info}.". See LAPACK '
                         'documentation for the ?TRSYL error codes.')
    if info == 1:
        warnings.warn('Input "a" has an eigenvalue pair whose sum is very '
                      'close to or exactly zero. The solution is obtained '
                      'via perturbing the coefficients.', RuntimeWarning,
                      stacklevel=2)
    Y *= scale
    L = U.dot(Y).dot(U.conj().T)
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


@dataclass(frozen=True)
class ScanPlan:
    """Tables of linear_scan for one (d, d) matrix E and the forcing taps
    (P, Q) of x_j = E x_{j-1} + P u_{j-1} + Q u_j, or for a stack (K, d, d)
    of per-block matrices E, P and Q, whose k-th matrices step the k-th of
    K recurrences.

    b is the number of nodes per block (scan_plan's, or fewer in a plan of
    block ends).  `table` is the ((b+1)*d, b*d) matrix whose block (l, i)
    is (E^{i-l+1} Q + E^{i-l} P)^T, a power below 0 counting as 0, without
    the Q term in block row l = 0: a row of the b + 1 inputs u_{k-1}, ...,
    u_{k+b-1} times `table` is the scan of the b nodes k, ..., k+b-1 from
    x_{k-1} = 0.  `carry` is the (d, b*d) row of blocks (E^{i+1})^T taking
    the state before a block to each of its nodes.  A stack has one table
    and one carry per block, on a leading axis.  `ends` keeps, by block
    count, the plans that scan the block ends of the grids scanned so far
    (_ends_plan).
    """

    E: np.ndarray
    b: int
    table: np.ndarray
    carry: np.ndarray
    ends: dict = field(default_factory=dict)


def scan_plan(E, P, Q) -> ScanPlan:
    """The ScanPlan of E with the forcing taps P and Q, all (d, d)
    matrices, or all stacks (K, d, d) of per-block matrices; build it once
    to reuse it over many scans.  The taps 0 and I give the plain
    recurrence x_j = E x_{j-1} + u_j."""
    E = np.asarray(E, dtype=float)
    if E.ndim not in (2, 3) or E.shape[-1] != E.shape[-2]:
        raise ValueError(f"expected a square step matrix, got shape {E.shape}")
    d = E.shape[-1]
    P, Q = np.asarray(P, dtype=float), np.asarray(Q, dtype=float)
    if P.shape != E.shape or Q.shape != E.shape:
        raise ValueError(f"expected forcing taps of size {d}, got shapes "
                         f"{P.shape} and {Q.shape}")
    # blocks of b = 64 // d nodes (at least 2) make the table about 64
    # wide; many small recurrences take tables about 32 wide, which halve
    # the table product's work, repaid by their extra ends level
    w = max(d, 1)
    b = max(2, 64 // w)
    return _plan(E, min(b, max(4, 32 // w)) if E.ndim == 3 else b, P, Q)


def _plan(E: np.ndarray, b: int, P=None, Q=None) -> ScanPlan:
    """scan_plan(E, P, Q) in blocks of b nodes, without its checks; without
    P and Q, the plan of the plain recurrence of an ends scan.  E may be a
    stack, whose blocks lead every table."""
    d, lead = E.shape[-1], E.shape[:-2]
    # powers[k] = (E^k)^T; a diagonal E keeps exact zeros off the diagonal
    powers = np.empty((b + 1,) + lead + (d, d))
    powers[0], powers[1] = np.eye(d), np.swapaxes(E, -1, -2)
    k = 1
    while k < b:
        n = min(k, b - k)
        powers[k + 1:k + 1 + n] = powers[1:1 + n] @ powers[k]
        k += n
    # tap[k] = (E^k Q + E^{k-1} P)^T is the weight of u_{j-k} in x_j, and
    # head[i] = (E^i P)^T that of the input just before a block in its
    # node i, which the block's scan from 0 does not see through Q
    if P is None:
        head, tap = np.zeros((b,) + lead + (d, d)), powers[:b]
    else:
        head = np.swapaxes(P, -1, -2) @ powers[:b]
        tap = np.swapaxes(Q, -1, -2) @ powers[:b]
        tap[1:] += head[:-1]
    l, i = np.triu_indices(b + 1, -1, b)
    keep = l > 0
    table = np.zeros(lead + (b + 1, d, b, d))
    table[..., l[keep], :, i[keep], :] = tap[i[keep] - l[keep] + 1]
    table[..., 0, :, :, :] = np.moveaxis(head, 0, -2)
    carry = np.moveaxis(powers[1:], 0, -2).reshape(lead + (d, b * d))
    return ScanPlan(E, b, table.reshape(lead + ((b + 1) * d, b * d)), carry)


def _ends_plan(plan: ScanPlan, n: int) -> ScanPlan:
    """The plan of E^b that scans the n ends of plan's blocks of b nodes,
    kept on plan by its own block count.  Its blocks hold at most n - 1
    nodes, so its table holds no power of E past the grid's, where a
    growing E overflows."""
    b = min(plan.b, n - 1)
    if b not in plan.ends:
        plan.ends[b] = _plan(np.linalg.matrix_power(plan.E, plan.b), b)
    return plan.ends[b]


# bytes of the table and carry products that _blocked_scan forms at once, a
# chunk of blocks at a time.  A chunk's product stays in L2 cache and the
# heap hands its memory to the next chunk, while a product of the whole
# grid is a fresh array of its size, handed back to the system after a
# sweep and faulted in again by the next (as _FIELD_BLOCK_BYTES in
# models.py).
_SCAN_CHUNK_BYTES = 2 ** 18


def _chunks(lo: int, hi: int, per: int) -> list[tuple[int, int]]:
    """lo .. hi - 1 in runs (start, stop) of max(2, per), a last run of
    one merged into the run before."""
    per = max(2, per)
    if hi - lo <= per:
        return [(lo, hi)]
    bounds = list(range(lo, hi, per))
    if hi - bounds[-1] == 1:
        bounds.pop()
    return list(zip(bounds, bounds[1:] + [hi]))


def _windows(src: np.ndarray, at: int, k: int, b: int) -> np.ndarray:
    """The k windows of b + 1 rows, b rows apart, of each recurrence of
    src (r, rows, d), the first at row at: (r, k, (b + 1) d), a view."""
    d, step = src.shape[2], src.itemsize
    return np.ndarray((len(src), k, (b + 1) * d), buffer=src,
                      offset=at * d * step,
                      strides=(src.strides[0], b * d * step, step))


def _carries(ends: np.ndarray, carry: np.ndarray) -> np.ndarray:
    """The carries E^{i+1} z_k of the states z_k = ends (r, k, d) before k
    blocks, at each node i of their block: (r, k b, d)."""
    r, _, d = ends.shape
    if carry.ndim == 2:
        return (ends.reshape(-1, d) @ carry).reshape(r, -1, d)
    return (ends @ carry).reshape(r, -1, d)


def _blocked_scan(plan: ScanPlan, X: np.ndarray, x0) -> None:
    """Scan the recurrences X (r, m, d) in place from x0 (r, d), or a
    state or scalar that broadcasts, with the plan's taps; a plan of
    per-block matrices has r of them.

    Node k*b + i + 1 of block k is the window of inputs k*b .. k*b + b
    times the table: windows of b + 1 rows, b rows apart, of each
    recurrence's (m, d) rows.  The blocks go in chunks of at most
    _SCAN_CHUNK_BYTES of products, from the top chunk down: chunk [k0, k1)
    reads the inputs k0*b .. k1*b and writes the nodes k0*b + 1 .. k1*b,
    which no lower chunk reads.  Where X is C-contiguous a chunk's windows lie in X
    itself; the top chunk, whose last window may run past the grid, and
    every chunk of any other X (a column slice of rows, a part read
    backward) read a zero-padded copy of their rows.  Every chunk holds
    two blocks or more unless the grid has one block, so no product has a
    single row (NumPy sends that to gemv, whose sums round otherwise).
    A grid of one chunk takes _one_chunk_scan, the same products in fewer
    steps.
    """
    r, m, d = X.shape
    b, bd = plan.b, plan.b * d
    nb = -(-(m - 1) // b)
    if nb == 0:
        X[:, 0] = x0  # a grid of one node has no block
        return
    per = _SCAN_CHUNK_BYTES // (X.itemsize * r * bd)
    if nb <= max(2, per):
        _one_chunk_scan(plan, X, x0, nb)
        return
    chunks = _chunks(0, nb, per)
    inplace = X.flags.c_contiguous
    # the state before block k: z_0 = x0, z_k = E^b z_{k-1} + (scan of
    # block k - 1 alone at its end), the plain recurrence of E^b, which
    # the blocked scan of its own plan solves
    ends = np.empty((r, nb, d))
    ends[:, 0] = x0
    spans = []
    for k0, k1 in reversed(chunks):
        lo, n = k0 * b, min(k1 * b, m - 1) - k0 * b
        spans.append((k0, k1, lo, n))
        if k1 < nb and inplace:
            src, at = X, lo
        else:
            src, at = np.zeros((r, (k1 - k0) * b + 1, d)), 0
            src[:, :n + 1] = X[:, lo:lo + n + 1]
        Z = _windows(src, at, k1 - k0, b) @ plan.table
        # block k's end goes to ends[k + 1]; the last block has none
        ends[:, k0 + 1:k1 + 1] = Z[:, :k1 - k0 - (k1 == nb), -d:]
        # the lowest chunk, scanned last, keeps its products until its carry
        if k0:
            X[:, lo + 1:lo + 1 + n] = Z.reshape(r, -1, d)[:, :n]
    _blocked_scan(_ends_plan(plan, nb), ends, ends[:, 0])
    X[:, 0] = ends[:, 0]
    # each node of block k takes its carry E^{i+1} z_k
    for k0, k1, lo, n in reversed(spans):
        C = _carries(ends[:, k0:k1], plan.carry)
        if k0:
            X[:, lo + 1:lo + 1 + n] += C[:, :n]
        else:
            C += Z.reshape(r, -1, d)
            X[:, 1:1 + n] = C[:, :n]


def _one_chunk_scan(plan: ScanPlan, X: np.ndarray, x0, nb: int) -> None:
    """_blocked_scan of a grid of nb blocks that fit in one chunk, with
    the chunked route's products: one table product of every window (in
    X itself where X is C-contiguous and its blocks end at its last node,
    else in a zero-padded copy), the scan of the block ends, then one
    carry product."""
    r, m, d = X.shape
    b = plan.b
    if nb * b == m - 1 and X.flags.c_contiguous:
        src = X
    else:
        src = np.zeros((r, nb * b + 1, d))
        src[:, :m] = X
    Z = _windows(src, 0, nb, b) @ plan.table
    ends = np.empty((r, nb, d))
    ends[:, 0] = x0
    if nb > 1:
        # block k's end goes to ends[k + 1]; the last block has none
        ends[:, 1:] = Z[:, :-1, -d:]
        _blocked_scan(_ends_plan(plan, nb), ends, ends[:, 0])
    X[:, 0] = ends[:, 0]
    C = _carries(ends, plan.carry)
    C += Z.reshape(r, -1, d)
    X[:, 1:] = C[:, :m - 1]


def _chunked_scan(E: np.ndarray, rows: np.ndarray, x0: np.ndarray,
                  out: np.ndarray) -> None:
    """The scan of rows (m, r, d) from x0 (r, d), written into out
    (m, r, d), which may be rows itself, with a stack E (m - 1, d, d) of
    transposed step matrices: E[j] = E_j^T, E_j taking node j to node
    j + 1.

    The nodes fall into K chunks of c = ceil(sqrt(m)) (the last one padded
    with zeros), laid out so that position i of every chunk is one slab.
    The recurrence steps inside all chunks at once, one batched matmul per
    position, which also carries d extra rows per chunk, started at the
    step into the chunk, and so turns them into the chunk's transfer
    matrices.  The K - 1 chunk ends then form a short recurrence through
    the stacked transfers, which this scan solves again, and each true
    chunk end enters the next chunk through the stored transfers in a
    single batched matmul.
    """
    m, r, d = rows.shape
    c = math.isqrt(m - 1) + 1
    K, full = -(-m // c), m // c
    # W[i, k] holds node k*c + i: its r rows, then its d transfer rows
    W = np.zeros((c, K, r + d, d))
    Wk = W.swapaxes(0, 1)
    Wk[:full, :, :r] = rows[:full * c].reshape(full, c, r, d)
    if full < K:
        Wk[full, :m - full * c, :r] = rows[full * c:]
    W[0, 0, :r] = x0
    P = np.zeros((K * c, d, d))
    P[1:m] = E
    P = P.reshape(K, c, d, d).swapaxes(0, 1)
    W[0, 1:, r:] = P[0, 1:]
    for i in range(1, c):
        W[i] += W[i - 1] @ P[i]
    Z, T = W[:, :, :r], W[:, :, r:]
    if K > 1:
        ends = Z[-1, :-1].copy()
        _chunked_scan(T[-1, 1:-1], ends, ends[0], ends)
        Z[:, 1:] += ends @ T[:, 1:]
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
    A plan of K per-block matrices (E, P and Q stacks of K (d, d) blocks)
    takes exactly K recurrences in between, the k-th with the k-th
    matrices: a block-diagonal recurrence of K*d states scanned as K small
    ones.

    A plan takes the blocked route: nodes 1 .. m-1 fall into blocks of
    b = max(2, 64 // d), and a gemm of the plan's table with a strided
    window of b + 1 input rows per block scans a chunk of blocks at once,
    taps included (one batched matmul of the K tables for a per-block
    plan, whose blocks hold at most max(4, 32 // d) nodes).  The block ends
    form the plain recurrence of E^b, which the same route scans with a
    plan of E^b kept on the plan, about log(m)/log(b) levels deep, and a
    second gemm per chunk adds each carry times E^{i+1} at node i of its
    block: O(m*b*d^2) work per recurrence, scanned in place in a copy of X
    with the time axis second to last (_blocked_scan).  A plan costs b
    small matmuls, so keep it when the same E is scanned repeatedly.

    A stack takes the chunked route: the nodes fall into about sqrt(m)
    chunks of about sqrt(m) nodes, one pass steps inside every chunk at
    once and forms the chunks' transfer matrices, the same route scans the
    chunk ends with them, and a second pass adds the carries: O(m*d^3)
    work in about sqrt(m) batched matmuls.
    """
    X = np.asarray(X, dtype=float)
    m, d = X.shape[0], X.shape[-1]
    plan = E if isinstance(E, ScanPlan) else None
    if plan is not None:
        if plan.E.shape[-2:] != (d, d):
            raise ValueError(f"expected one step matrix of size {d}, got "
                             f"shape {plan.E.shape}")
        if plan.E.ndim == 3 and np.prod(X.shape[1:-1], dtype=int) != len(
                plan.E):
            raise ValueError(f"expected {len(plan.E)} recurrences for the "
                             f"per-block step matrices, got shape {X.shape}")
    elif np.shape(E) != (m - 1, d, d):
        raise ValueError(f"expected a ScanPlan or {m - 1} step matrices of "
                         f"size {d}, got shape {np.shape(E)}")
    if X.size == 0:
        return np.empty(X.shape)
    rows = X.reshape(m, -1, d)
    # a scalar or one state broadcasts over the recurrences as it is
    start = rows[0] if x0 is None else np.asarray(x0, dtype=float)
    if start.ndim > 1:
        start = start.reshape(-1, d)
    if plan is None:
        out = np.empty(X.shape)
        _chunked_scan(np.swapaxes(E, -1, -2), rows, start,
                      out.reshape(rows.shape))
        return out
    # the plan scans in place: a contiguous copy with the time axis second
    # to last keeps X intact
    R = np.moveaxis(X, 0, -2).copy()
    _scan_into(plan, R, start)
    return np.ascontiguousarray(np.moveaxis(R, -2, 0))


def _scan_into(plan: ScanPlan, X: np.ndarray, x0) -> None:
    """The blocked scan with plan of the recurrences X (..., m, d), time
    axis second to last, in place, from x0 (..., d), or a state or scalar
    that broadcasts.  X may be a view (a column slice of rows, a part read
    backward) whose leading axes reshape to one without a copy."""
    if X.size == 0:
        return
    m, d = X.shape[-2:]
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim > 1:
        x0 = x0.reshape(-1, d)
    _blocked_scan(plan, X.reshape(-1, m, d), x0)


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


def _check_stopping(max_iter: int, tol: float) -> None:
    """Refuse (ValueError) a max_iter not an integer >= 1, and a tol < 0,
    NaN or infinite (at which the first sweep would stop as converged)."""
    if not isinstance(max_iter, (int, np.integer)):
        raise ValueError(f"max_iter must be an integer, got {max_iter!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not tol >= 0:
        raise ValueError(f"tol must be non-negative, got {tol}")
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol}")


def _contract(sweep: Callable, x, increment: Callable[..., float],
              tol: float, max_iter: int) -> tuple:
    """Iterate x <- sweep(x) until increment(sweep(x), x) is at most tol;
    returns the last iterate and the list of per-sweep increments.  An
    iterate need not be an array: increment measures new against old.

    Raises NoContractionError once three consecutive sweeps above tol did
    not shrink the increment, or when max_iter sweeps end above tol, and
    ValueError for the stopping rules _check_stopping refuses.
    """
    _check_stopping(max_iter, tol)
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


def picard_solve(model, v0, T: float, dt: float,
                 tol: float = 1e-10) -> tuple[OrbitGrid, dict]:
    """Fixed point of v(t) = U(t,0)v0 + int_0^t U(t,s) f(v(s)) ds on [0, T].

    Each sweep freezes A(t) = DF(v_prev(t)) along the previous iterate and
    integrates the linear system v' = A(t)v + f(v_prev(t)) with
    f(v) = F(v) - DF(v)v.  Diagnostics report the iterations, the last
    increment and contraction_factor, the largest ratio of consecutive
    sweep increments (_contraction_factor).  The sweeps stop once the
    increment is at most tol, within the constant 40 sweeps.  Raises
    ValueError for a T or dt that is not a positive finite number, and
    NoContractionError when the sweeps stop above tol.
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
        tol, 40)
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
