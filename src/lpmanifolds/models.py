"""Concrete model systems: MMT Galerkin truncations, polynomial saddle toys,
a reaction-diffusion gradient flow, and KdV traveling-wave profiles.

Every model implements the ModelSystem contract: a vector field F with
F(equilibrium) = 0, its Jacobian, a norm ladder, and an optional energy.
F and its Jacobian take states of shape (..., n), one state per leading
index, and return shapes (..., n) and (..., n, n).  A state whose last axis
is not n is refused with ValueError.  Complex fields are stored as
interleaved (Re, Im) real coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .graded import NormLadder, as_state

__all__ = [
    "ModelSystem",
    "MmtParams",
    "ModePairBlock",
    "custom_model",
    "mmt_plane_wave_frequency",
    "mmt_block",
    "mmt_unstable_scan",
    "mmt_galerkin",
    "mmt_mode_set",
    "saddle_toy",
    "reaction_diffusion",
    "kdv_wave_profile",
    "WaveProfile",
]


@dataclass
class ModelSystem:
    """A vector field F, its Jacobian A(u) = DF(u), an equilibrium, and norms;
    F and DF take states (..., n), with n the length of the equilibrium."""

    name: str
    vector_field: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    equilibrium: np.ndarray
    ladder: NormLadder
    energy: Callable[[np.ndarray], float] | None = None

    @property
    def dimension(self) -> int:
        return self.equilibrium.shape[0]

    def field_many(self, states: np.ndarray) -> np.ndarray:
        """Vector field on a batch of states (rows)."""
        return self.vector_field(states)


def _states(u, n: int) -> np.ndarray:
    """u as float states (..., n).  A single state goes through as_state,
    which also refuses non-finite entries; a batch has its length checked."""
    arr = np.asarray(u, dtype=float)
    if arr.ndim <= 1:
        return as_state(arr, n)
    if arr.shape[-1] != n:
        raise ValueError(f"states have length {arr.shape[-1]}, expected {n}")
    return arr


def _per_row(f, n: int, out_shape: tuple[int, ...], name: str):
    """Lift a single-state callable f, returning out_shape, to states of
    shape (..., n): one call of f per state.  A return of another shape is
    refused with ValueError naming the model, on one state as on a batch."""
    what = "Jacobian" if len(out_shape) == 2 else "field"

    def refuse(shape):
        raise ValueError(
            f"model {name!r}: the single-state {what} returned shape "
            f"{shape}, expected {out_shape}")

    def lifted(u):
        arr = _states(u, n)
        if arr.ndim == 1:
            out = np.asarray(f(arr), dtype=float)
            if out.shape != out_shape:
                refuse(out.shape)
            return out
        rows = arr.reshape(-1, n)
        if not len(rows):
            return np.empty(arr.shape[:-1] + out_shape)
        vals = [f(s) for s in rows]
        try:
            out = np.array(vals, dtype=float)
        except ValueError:
            refuse("varying by state")
        if out.shape[1:] != out_shape:
            refuse(out.shape[1:])
        return out.reshape(arr.shape[:-1] + out_shape)
    return lifted


def custom_model(name: str, F, jac, equilibrium, ladder=None) -> ModelSystem:
    """ModelSystem from a single-state field F and Jacobian jac, with the
    Euclidean norm ladder unless ladder is given.

    The model's vector_field and jacobian lift F and jac to states (..., n)
    with one Python call per state; a model whose arithmetic broadcasts
    builds ModelSystem directly instead.
    """
    eq = as_state(equilibrium)
    dim = eq.shape[0]
    return ModelSystem(name=name, vector_field=_per_row(F, dim, (dim,), name),
                       jacobian=_per_row(jac, dim, (dim, dim), name),
                       equilibrium=eq,
                       ladder=ladder or NormLadder.euclidean(dim))


# ---------------------------------------------------------------------------
# MMT model: u_t = -i(|D|^{2a} u + sigma |D|^b (||D|^b u|^2 |D|^b u))

# bytes of the padded buffer through which the MMT field passes a batch,
# one block of rows at a time.  It stays in L2 cache and is reused from the
# heap, while a whole-batch buffer (5.3 MB at 63 modes on 1751 states) is
# handed back to the system after a call and faulted in again by the next.
# Of the budgets 2^16..2^20, 2^18 gave the fastest benchmark rounds
# (BENCH_mmt_blocks.json).
_FIELD_BLOCK_BYTES = 2 ** 18


def _mult(xi: int, beta: float) -> float:
    """|xi|^beta with the beta = 0 operator equal to the identity."""
    if beta == 0.0:
        return 1.0
    return float(abs(xi)) ** beta


@dataclass(frozen=True)
class MmtParams:
    alpha: float
    beta: float
    sigma: int
    a: float
    xi0: int
    mode_set: tuple[int, ...]

    def __post_init__(self):
        for name in ("alpha", "beta", "a"):
            if not math.isfinite(x := getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {x}")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.beta > self.alpha:
            raise ValueError("beta must satisfy beta <= alpha")
        if self.sigma not in (1, -1):
            raise ValueError("sigma must be +1 or -1")
        if self.xi0 not in self.mode_set:
            raise ValueError("carrier mode xi0 must be in the mode set")
        if len(set(self.mode_set)) != len(self.mode_set):
            raise ValueError("mode_set has duplicates")


def mmt_mode_set(xi0: int, half_width: int) -> tuple[int, ...]:
    """Mode set {xi0-half_width..xi0+half_width}, closed under xi -> 2*xi0-xi."""
    return tuple(range(xi0 - half_width, xi0 + half_width + 1))


def mmt_plane_wave_frequency(p: MmtParams) -> float:
    """Rotating-frame frequency: omega = -|xi0|^{2a} - sigma a^2 |xi0|^{4b}."""
    return (-_mult(p.xi0, 2 * p.alpha)
            - p.sigma * p.a ** 2 * _mult(p.xi0, 2 * p.beta) ** 2)


@dataclass
class ModePairBlock:
    """Real 4x4 linearization block of the mode pair (xi, 2*xi0 - xi)."""

    c_plus: float
    c_minus: float
    c: float
    block: np.ndarray

    def quartic_coeffs(self) -> tuple[float, float]:
        """(B, C) in lambda^4 + B lambda^2 + C = 0."""
        B = self.c_plus ** 2 + self.c_minus ** 2 - 2 * self.c ** 2
        C = (self.c_plus * self.c_minus - self.c ** 2) ** 2
        return B, C


def mmt_block(p: MmtParams, xi: int) -> ModePairBlock:
    """Coupling constants and assembled real block for the pair (xi, 2*xi0-xi).

    b+' = -i(c+ b+ + c conj(b-)),  b-' = -i(c conj(b+) + c- b-), with
    c  = sigma a^2 |xi0|^{2b} |xi|^b |2 xi0 - xi|^b,
    c+ = omega + |xi|^{2a} + 2 sigma a^2 |xi0|^{2b} |xi|^{2b},
    c- = omega + |2 xi0 - xi|^{2a} + 2 sigma a^2 |xi0|^{2b} |2 xi0 - xi|^{2b}.
    """
    if xi == p.xi0:
        raise ValueError("degenerate pair: xi equals the carrier xi0")
    if p.a < 0:
        raise ValueError("amplitude a must be nonnegative (phase invariance)")
    om = mmt_plane_wave_frequency(p)
    xim = 2 * p.xi0 - xi
    y = _mult(p.xi0, 2 * p.beta)
    cp = om + _mult(xi, 2 * p.alpha) + 2 * p.sigma * p.a ** 2 * y * _mult(xi, 2 * p.beta)
    cm = om + _mult(xim, 2 * p.alpha) + 2 * p.sigma * p.a ** 2 * y * _mult(xim, 2 * p.beta)
    c = p.sigma * p.a ** 2 * y * _mult(xi, p.beta) * _mult(xim, p.beta)
    block = np.array([
        [0.0, cp, 0.0, -c],
        [-cp, 0.0, -c, 0.0],
        [0.0, -c, 0.0, cm],
        [-c, 0.0, -cm, 0.0]])
    return ModePairBlock(c_plus=cp, c_minus=cm, c=c, block=block)


def mmt_unstable_scan(p: MmtParams, xi_range: Sequence[int]) -> list[dict]:
    """Per-pair discriminant c+^2 + c-^2 - 2c^2; negative flags instability.

    Every pair also gets a dense eigensolve of its assembled block: max_re
    is its largest real part, and confirmed says max_re > 1e-8.
    """
    rows = []
    for xi in xi_range:
        if xi == p.xi0:
            continue
        blk = mmt_block(p, xi)
        B, _ = blk.quartic_coeffs()
        max_re = float(np.linalg.eigvals(blk.block).real.max())
        rows.append({"xi": int(xi), "partner": int(2 * p.xi0 - xi),
                     "discriminant": float(B), "flagged": bool(B < 0),
                     "max_re": max_re, "confirmed": bool(max_re > 1e-8)})
    return rows


def mmt_galerkin(p: MmtParams) -> ModelSystem:
    """Rotating-frame Galerkin truncation of the MMT flow over (Re, Im) pairs.

    The equilibrium is the plane wave a*e^{i xi0 x}; by the plane-wave
    relation its vector field vanishes identically.  The cubic term is
    evaluated pseudo-spectrally: with W = sum |xi|^b z_xi e^{i xi x}, it is
    |xi|^b times the Fourier coefficient of |W|^2 W on each retained mode.
    The mode set is embedded in [min, max] and zero-padded to at least three
    times that span, so the product has no aliasing and the result equals
    the direct sum over retained triads.  A batch of states passes through
    one padded buffer of at most _FIELD_BLOCK_BYTES, a block of rows at a
    time (one state is a one-row batch), and both transforms overwrite it in
    place; the retained modes are a basic slice of it when the mode set is
    ascending without gaps, and at beta = 0 the unit weights are not applied
    to the state.  Only the cubic runs per block; disp z and the factor -1j
    are applied to the whole batch, and every operation acts row by row, so
    the bits do not depend on the block size.
    """
    if len(p.mode_set) > 64:
        raise ValueError("mode_set too large (desk scale is <= 64 modes)")
    modes = list(p.mode_set)
    N = len(modes)
    om = mmt_plane_wave_frequency(p)
    disp = np.array([_mult(xi, 2 * p.alpha) for xi in modes]) + om
    wmul = np.array([_mult(xi, p.beta) for xi in modes])
    q = np.array(modes) - min(modes)  # slots of the modes in [min, max]
    span = int(q.max()) + 1
    L = 3 * span                      # alias-free grid for the cubic
    block = max(1, _FIELD_BLOCK_BYTES // (16 * L))  # rows per padded block
    # an ascending mode set without gaps (every mmt_mode_set) fills slots
    # 0..N-1, a basic slice; others scatter to and gather from q
    slots = slice(0, N) if np.array_equal(q, np.arange(N)) else q
    sw = p.sigma * wmul
    # Jacobian gather indices: lag xi_n - xi_m and sum xi_n + xi_m
    diff_idx = q[:, None] - q[None, :] + span - 1
    sum_idx = q[:, None] + q[None, :]

    # a state interleaves (Re, Im) of each mode, which is the memory layout
    # of complex128, so both conversions are views
    def to_complex(u: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(u).view(np.complex128)

    def to_real(z: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(z).view(float)

    def cubic(w: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Coefficients of |W|^2 W on the retained modes of the rows w:
        both transforms run in place on the zero-padded buffer v, of shape
        (len(w), L), and the result is read from it."""
        v.fill(0)
        v[:, slots] = w
        np.fft.ifft(v, norm="forward", out=v)
        mod2 = np.square(v.real)
        mod2 += np.square(v.imag)
        v *= mod2
        np.fft.fft(v, norm="forward", out=v)
        return v[:, slots]

    def field_c(z: np.ndarray) -> np.ndarray:
        """-1j (disp z + sigma wmul cubic(wmul z)) on the states z (..., N):
        disp z over the whole batch, then the cubic in blocks of rows through
        one padded buffer, each added in place in its slice of the output,
        then -1j over the whole batch.  At beta = 0 the weights are all ones
        and z enters the cubic as it is."""
        rows = z.reshape(-1, N)
        out = np.multiply(disp, rows)
        v = np.empty((min(block, len(rows)), L), dtype=complex)
        for s in range(0, len(rows), block):
            zb = rows[s:s + block]
            cub = cubic(zb if p.beta == 0.0 else wmul * zb, v[:len(zb)])
            np.multiply(sw, cub, out=cub)
            out[s:s + block] += cub
        np.multiply(-1j, out, out=out)
        return out.reshape(z.shape)

    def F(u: np.ndarray) -> np.ndarray:
        return to_real(field_c(to_complex(_states(u, 2 * N))))

    def jac(u: np.ndarray) -> np.ndarray:
        """Jacobian at one state; np.correlate has no batched form."""
        z = to_complex(u)
        v = np.zeros(span, dtype=complex)  # e^{-i min x} W in slots 0..span-1
        v[slots] = wmul * z
        # d(cubic)_n / dz_m = 2 c(|W|^2)[xi_n - xi_m] w_m (Toeplitz) and
        # d(cubic)_n / dconj(z)_m = c(W^2)[xi_n + xi_m] w_m (Hankel).  The
        # coefficients come from direct O(N^2) convolutions rather than the
        # FFT: they are exact on the plane wave, where roundoff would split
        # the zero eigenvalue of the phase-symmetry Jordan block by ~1e-8.
        Gz = 2.0 * np.correlate(v, v, "full")[diff_idx] * wmul
        Gzb = np.convolve(v, v)[sum_idx] * wmul
        Az = -1j * (np.diag(disp) + p.sigma * wmul[:, None] * Gz)
        Bz = -1j * (p.sigma * wmul[:, None] * Gzb)
        # real form of phi -> Az phi + Bz conj(phi)
        Jr = np.empty((2 * N, 2 * N))
        Jr[0::2, 0::2] = Az.real + Bz.real
        Jr[0::2, 1::2] = -Az.imag + Bz.imag
        Jr[1::2, 0::2] = Az.imag + Bz.imag
        Jr[1::2, 1::2] = Az.real - Bz.real
        return Jr

    def energy(u: np.ndarray) -> float:
        """Conserved rotating-frame energy of the truncated flow."""
        z = to_complex(as_state(u, 2 * N))
        w = wmul * z
        quad = 0.5 * float(np.sum(disp * np.abs(z) ** 2))
        cub = cubic(w[None], np.empty((1, L), dtype=complex))[0]
        quart = 0.25 * p.sigma * float(np.real(np.sum(cub * np.conj(w))))
        return quad + quart

    eq_c = np.zeros(N, dtype=complex)
    eq_c[modes.index(p.xi0)] = p.a
    equilibrium = to_real(eq_c)

    s_of_r = (lambda r: (1.0 + 2.0 * r) * p.alpha)
    ladder = NormLadder.fourier(modes, s_of_r)

    return ModelSystem(
        name="mmt", vector_field=F,
        jacobian=_per_row(jac, 2 * N, (2 * N, 2 * N), "mmt"),
        equilibrium=equilibrium, ladder=ladder, energy=energy)


# ---------------------------------------------------------------------------
# polynomial saddle toys with exact invariant manifolds

def saddle_toy(name: str) -> ModelSystem:
    """Analytic-oracle planar saddles.

    saddle1: x' = x, y' = -y + x^2, unstable manifold y = x^2/3, stable x = 0.
    saddle2: x' = 2x + y^2, y' = -y, unstable manifold y = 0, stable x = -y^2/4.
    """
    if name not in ("saddle1", "saddle2"):
        raise ValueError(f"unknown saddle toy {name!r}")
    # x' = a x, y' = -y, plus the square of coordinate j in the other one
    a, j = (1.0, 0) if name == "saddle1" else (2.0, 1)
    lin = np.array([a, -1.0])

    def F(u):
        S = _states(u, 2)
        # lin * S a column at a time: a broadcast of the two-wide row over
        # a batch is slower, with the same products
        out = np.empty(S.shape)
        for k in (0, 1):
            np.multiply(S[..., k], lin[k], out=out[..., k])
        out[..., 1 - j] += S[..., j] * S[..., j]
        return out

    def jac(u):
        S = _states(u, 2)
        J = np.zeros(S.shape + (2,))
        J[..., [0, 1], [0, 1]] = lin
        J[..., 1 - j, j] = 2.0 * S[..., j]
        return J

    return ModelSystem(name=name, vector_field=F, jacobian=jac,
                       equilibrium=np.zeros(2),
                       ladder=NormLadder.euclidean(2))


# ---------------------------------------------------------------------------
# reaction-diffusion gradient flow: u_t = u_xx + lam*u - u^3, cosine Galerkin

def reaction_diffusion(lambda_param: float, n_modes: int) -> ModelSystem:
    """Cosine-Galerkin truncation of u_t = u_xx + lam u - u^3 on the circle.

    State a_k, k = 0..n_modes-1, for u = sum a_k cos(kx).  Linearization at 0
    is diag(lam - k^2); the unstable dimension is #{k : k^2 < lam}.

    The cubic is a contraction with the table of cosine products, built once:
    entry (j, k, i) is the coefficient of cos(kx) in cos(jx) cos(ix), which
    is 0, 1/2 or 1.  The table gives the coefficients of u^2 on modes
    0..2n-2, and from them the matrix M of phi -> u^2 phi on modes 0..n-1.
    The field is lam a - k^2 a - M a and, the cubic form being symmetric,
    the Jacobian is diag(lam - k^2) - 3 M.  Every entry is a sum of products
    with exact table entries, so a product with an exactly-zero coefficient
    adds an exact zero: modes that vanish by symmetry stay exactly zero.
    One state and batches of any leading shape take the same code.
    """
    if n_modes < 2:
        raise ValueError("need at least two cosine modes")
    if n_modes > 64:
        raise ValueError("n_modes too large (desk scale is <= 64 modes)")
    if not math.isfinite(lambda_param):
        raise ValueError(f"lambda_param must be a finite number, got "
                         f"{lambda_param}")
    n = n_modes
    L = 2 * n - 1
    lin = np.array([lambda_param - k * k for k in range(n)])
    # cos(jx) cos(ix) = (cos((j + i)x) + cos((j - i)x)) / 2; for j = i = 0
    # both halves land on k = 0
    prod = np.zeros((L, L, n))
    j, i = np.indices((L, n))
    for k in (j + i, np.abs(j - i)):
        keep = k < L
        prod[j[keep], k[keep], i[keep]] += 0.5
    # square_table (k, j*n + i): u^2 from the products a_j a_i, j, i < n;
    # times_table (j, k*n + i): M from the coefficients of u^2
    square_table = prod[:n].transpose(1, 0, 2).reshape(L, n * n)
    times_table = prod[:, :n].reshape(L, n * n)
    # the field's product takes the transpose, contiguous, made once
    times_table_T = np.ascontiguousarray(times_table.T)

    def square(cols):
        """Coefficients of u^2 on modes 0..L-1, one column per column of
        states cols (n, rows)."""
        return square_table @ (cols[:, None] * cols[None]).reshape(n * n, -1)

    def columns(a):
        return np.ascontiguousarray(a.reshape(-1, n).T)

    def F(u):
        a = _states(u, n)
        cols = columns(a)
        M = (times_table_T @ square(cols)).reshape(n, n, -1)
        M *= cols
        return lin * a - M.sum(axis=1).T.reshape(a.shape)

    def jac(u):
        a = _states(u, n)
        J = (square(columns(a)).T @ times_table).reshape(a.shape + (n,))
        J *= -3.0
        J += np.diag(lin)
        return J

    return ModelSystem(
        name="rd", vector_field=F, jacobian=jac, equilibrium=np.zeros(n),
        ladder=NormLadder(n, lambda i, r: (1.0 + i * i) ** (r / 2.0)))


# ---------------------------------------------------------------------------
# KdV traveling-wave profile from the zero level curve of H

@dataclass
class WaveProfile:
    x: np.ndarray
    phi: np.ndarray
    phi_x: np.ndarray
    phi_max: float
    level_residual: float


def kdv_wave_profile(c: float, p: float, a: float, x_grid) -> WaveProfile:
    """Solitary-wave profile solving H(phi, phi_x) = 0 with crest at x = 0.

    H = (1/2)(1+a phi^2) phi_x^2 - (c/2) phi^2 + |phi|^{p+1}/(p+1) and
    phi_x = -sgn(x) sqrt((c phi^2 - 2 phi^{p+1}/(p+1)) / (1 + a phi^2)).
    The square root degenerates at the crest, so the first step off the
    turning point uses the series phi = phi_max - m x^2/4, m = -g'(phi_max).
    """
    if not c > 0:
        raise ValueError(f"wave speed c must be positive, got {c}")
    if not p > 1:
        raise ValueError("power p must exceed 1")
    if not a >= 0:
        raise ValueError("metric coefficient a must be nonnegative")
    x_grid = np.asarray(x_grid, dtype=float)
    phi_max = (c * (p + 1) / 2.0) ** (1.0 / (p - 1.0))

    def g(phi):
        return (c * phi * phi - 2.0 * phi ** (p + 1) / (p + 1)) / (1.0 + a * phi * phi)

    def gprime(phi):
        num = c * phi * phi - 2.0 * phi ** (p + 1) / (p + 1)
        dnum = 2.0 * c * phi - 2.0 * phi ** p
        den = 1.0 + a * phi * phi
        return (dnum * den - num * 2.0 * a * phi) / den ** 2

    m = -gprime(phi_max)
    h_fd = 1e-6 * (1.0 + phi_max)
    g2 = (gprime(phi_max + h_fd) - gprime(phi_max - h_fd)) / (2.0 * h_fd)
    e2 = g2 / 24.0
    # series leg around the crest, where the sqrt vector field is
    # non-Lipschitz: phi = phi_max - (m/4) x^2 (1 + e2 x^2) + O(x^6)
    x_ser = 0.02 / max(1.0, math.sqrt(max(m, 1e-12)))

    def series(x):
        return phi_max - 0.25 * m * x * x * (1.0 + e2 * x * x)

    def rhs(x, phi):
        val = g(phi[0]) if phi[0] > 0 else 0.0
        return np.array([-math.sqrt(max(val, 0.0))])

    xs = np.unique(np.abs(x_grid))
    phis = {}
    from .linalg import integrate_rk4
    x_cur = x_ser
    phi_cur = np.array([series(x_ser)])
    dt = 5e-4
    for xt in xs:
        if xt <= x_ser:
            phis[xt] = series(xt)
            continue
        phi_cur = integrate_rk4(rhs, phi_cur, x_cur, xt, dt)
        phi_cur[0] = max(phi_cur[0], 0.0)
        x_cur = xt
        phis[xt] = phi_cur[0]
    phi = np.array([phis[abs(x)] for x in x_grid])
    phi_x = np.array([-math.copysign(1.0, x) * math.sqrt(max(g(ph), 0.0))
                      if abs(x) > 0 else 0.0
                      for x, ph in zip(x_grid, phi)])
    H = (0.5 * (1.0 + a * phi ** 2) * phi_x ** 2 - 0.5 * c * phi ** 2
         + np.abs(phi) ** (p + 1) / (p + 1))
    res = float(np.max(np.abs(H))) if len(H) else 0.0
    if res > 1e-8:
        raise RuntimeError(f"level-curve residual {res:.3e} exceeds 1e-8")
    return WaveProfile(x=x_grid, phi=phi, phi_x=phi_x, phi_max=phi_max,
                       level_residual=res)
