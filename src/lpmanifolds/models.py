"""Concrete model systems: MMT Galerkin truncations, polynomial saddle toys,
a reaction-diffusion gradient flow, and KdV traveling-wave profiles.

Every model implements the ModelSystem contract: a vector field F with
F(equilibrium) = 0, its Jacobian, a norm ladder, and an optional energy.
Complex fields are stored as interleaved (Re, Im) real coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    """A vector field F, its Jacobian A(u) = DF(u), an equilibrium, and norms."""

    name: str
    dimension: int
    vector_field: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    equilibrium: np.ndarray
    ladder: NormLadder
    hessian_form: Callable[[np.ndarray], np.ndarray] | None = None
    energy: Callable[[np.ndarray], float] | None = None
    vector_field_many: Callable[[np.ndarray], np.ndarray] | None = None
    suggested_gap: float | None = None

    def field_many(self, states: np.ndarray) -> np.ndarray:
        """Vector field on a batch of states (rows); loops unless overridden."""
        if self.vector_field_many is not None:
            return self.vector_field_many(states)
        return np.array([self.vector_field(s) for s in states])


def custom_model(name: str, F, jac, equilibrium, ladder=None, **kw) -> ModelSystem:
    eq = as_state(equilibrium)
    dim = eq.shape[0]
    return ModelSystem(name=name, dimension=dim, vector_field=F, jacobian=jac,
                       equilibrium=eq,
                       ladder=ladder or NormLadder.euclidean(dim), **kw)


# ---------------------------------------------------------------------------
# MMT model: u_t = -i(|D|^{2a} u + sigma |D|^b (||D|^b u|^2 |D|^b u))

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
    period: float = 2.0 * math.pi

    def __post_init__(self):
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


def mmt_unstable_scan(p: MmtParams, xi_range: Sequence[int],
                      confirm: bool = True) -> list[dict]:
    """Per-pair discriminant c+^2 + c-^2 - 2c^2; negative flags instability.

    Flagged pairs are confirmed by a dense eigensolve of the assembled block
    (some eigenvalue with real part > 1e-8) when confirm is set.
    """
    rows = []
    for xi in xi_range:
        if xi == p.xi0:
            continue
        blk = mmt_block(p, xi)
        B, _ = blk.quartic_coeffs()
        flagged = B < 0
        row = {"xi": int(xi), "partner": int(2 * p.xi0 - xi),
               "discriminant": float(B), "flagged": bool(flagged)}
        if confirm:
            max_re = float(np.linalg.eigvals(blk.block).real.max())
            row["max_re"] = max_re
            row["confirmed"] = bool(max_re > 1e-8)
        rows.append(row)
    return rows


def mmt_galerkin(p: MmtParams) -> ModelSystem:
    """Rotating-frame Galerkin truncation of the MMT flow over (Re, Im) pairs.

    The equilibrium is the plane wave a*e^{i xi0 x}; by the plane-wave
    relation its vector field vanishes identically.  The cubic term is
    evaluated pseudo-spectrally: with W = sum |xi|^b z_xi e^{i xi x}, it is
    |xi|^b times the Fourier coefficient of |W|^2 W on each retained mode.
    The mode set is embedded in [min, max] and zero-padded to at least three
    times that span, so the product has no aliasing and the result equals
    the direct sum over retained triads.
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
    # Jacobian gather indices: lag xi_n - xi_m and sum xi_n + xi_m
    diff_idx = q[:, None] - q[None, :] + span - 1
    sum_idx = q[:, None] + q[None, :]

    def to_complex(u: np.ndarray) -> np.ndarray:
        return u[..., 0::2] + 1j * u[..., 1::2]

    def to_real(z: np.ndarray) -> np.ndarray:
        out = np.empty(z.shape[:-1] + (2 * N,))
        out[..., 0::2] = z.real
        out[..., 1::2] = z.imag
        return out

    def embed(w: np.ndarray, length: int) -> np.ndarray:
        """Coefficients of e^{-i min x} W in slots 0..length-1."""
        c = np.zeros(w.shape[:-1] + (length,), dtype=complex)
        c[..., q] = w
        return c

    def cubic(w: np.ndarray) -> np.ndarray:
        """Coefficients of |W|^2 W on the retained modes (single or batch)."""
        v = np.fft.ifft(embed(w, L), norm="forward")
        v *= v.real ** 2 + v.imag ** 2
        return np.fft.fft(v, norm="forward")[..., q]

    def field_c(z: np.ndarray) -> np.ndarray:
        return -1j * (disp * z + p.sigma * wmul * cubic(wmul * z))

    def F(u: np.ndarray) -> np.ndarray:
        return to_real(field_c(to_complex(as_state(u, 2 * N))))

    def F_many(states: np.ndarray) -> np.ndarray:
        return to_real(field_c(to_complex(np.asarray(states, dtype=float))))

    def jac(u: np.ndarray) -> np.ndarray:
        z = to_complex(as_state(u, 2 * N))
        v = embed(wmul * z, span)
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
        quart = 0.25 * p.sigma * float(np.real(np.sum(cubic(w) * np.conj(w))))
        return quad + quart

    eq_c = np.zeros(N, dtype=complex)
    eq_c[modes.index(p.xi0)] = p.a
    equilibrium = to_real(eq_c)

    s_of_r = (lambda r: (1.0 + 2.0 * r) * p.alpha)
    ladder = NormLadder.fourier(modes, s_of_r)

    return ModelSystem(
        name="mmt", dimension=2 * N, vector_field=F, jacobian=jac,
        equilibrium=equilibrium, ladder=ladder, energy=energy,
        vector_field_many=F_many)


# ---------------------------------------------------------------------------
# polynomial saddle toys with exact invariant manifolds

def saddle_toy(name: str) -> ModelSystem:
    """Analytic-oracle planar saddles.

    saddle1: x' = x, y' = -y + x^2, unstable manifold y = x^2/3, stable x = 0.
    saddle2: x' = 2x + y^2, y' = -y, unstable manifold y = 0, stable x = -y^2/4.
    """
    if name == "saddle1":
        def F(u):
            x, y = u
            return np.array([x, -y + x * x])

        def jac(u):
            x, _ = u
            return np.array([[1.0, 0.0], [2.0 * x, -1.0]])
    elif name == "saddle2":
        def F(u):
            x, y = u
            return np.array([2.0 * x + y * y, -y])

        def jac(u):
            _, y = u
            return np.array([[2.0, 2.0 * y], [0.0, -1.0]])
    else:
        raise ValueError(f"unknown saddle toy {name!r}")
    return custom_model(name, F, jac, np.zeros(2), suggested_gap=0.5)


# ---------------------------------------------------------------------------
# reaction-diffusion gradient flow: u_t = u_xx + lam*u - u^3, cosine Galerkin

def reaction_diffusion(lambda_param: float, n_modes: int) -> ModelSystem:
    """Cosine-Galerkin truncation of u_t = u_xx + lam u - u^3 on the circle.

    State a_k, k = 0..n_modes-1, for u = sum a_k cos(kx).  Linearization at 0
    is diag(lam - k^2); the unstable dimension is #{k : k^2 < lam}.
    """
    if n_modes < 2:
        raise ValueError("need at least two cosine modes")
    n = n_modes
    lin = np.array([lambda_param - k * k for k in range(n)])

    def to_full(a):
        """Cosine coefficients -> full exponential coefficients (index shift n-1)."""
        full = np.zeros(2 * n - 1)
        full[n - 1] = a[0]
        for k in range(1, n):
            full[n - 1 + k] = 0.5 * a[k]
            full[n - 1 - k] = 0.5 * a[k]
        return full

    def from_full(full, width):
        m = (len(full) - 1) // 2
        out = np.zeros(width)
        out[0] = full[m]
        for k in range(1, width):
            out[k] = 2.0 * full[m + k]
        return out

    def cube_coeffs(a):
        full = to_full(a)
        sq = np.convolve(full, full)
        cu = np.convolve(sq, full)
        return from_full(cu, n)

    def F(u):
        a = as_state(u, n)
        return lin * a - cube_coeffs(a)

    def mult_matrix_usq(a):
        """Matrix of phi -> (u^2 * phi) projected on cosine modes."""
        full = to_full(a)
        sq = np.convolve(full, full)
        M = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            M[:, j] = from_full(np.convolve(sq, to_full(e)), n)
        return M

    def jac(u):
        a = as_state(u, n)
        return np.diag(lin) - 3.0 * mult_matrix_usq(a)

    return custom_model("rd", F, jac, np.zeros(n),
                        ladder=NormLadder(n, lambda i, r: (1.0 + i * i) ** (r / 2.0)),
                        suggested_gap=None)


# ---------------------------------------------------------------------------
# KdV traveling-wave profile from the zero level curve of H

@dataclass
class WaveProfile:
    x: np.ndarray
    phi: np.ndarray
    phi_x: np.ndarray
    phi_max: float
    level_residual: float

    def hamiltonian(self, c: float, p: float, a: float) -> np.ndarray:
        return (0.5 * (1.0 + a * self.phi ** 2) * self.phi_x ** 2
                - 0.5 * c * self.phi ** 2
                + np.abs(self.phi) ** (p + 1) / (p + 1))


def kdv_wave_profile(c: float, p: float, a: float, x_grid) -> WaveProfile:
    """Solitary-wave profile solving H(phi, phi_x) = 0 with crest at x = 0.

    H = (1/2)(1+a phi^2) phi_x^2 - (c/2) phi^2 + |phi|^{p+1}/(p+1) and
    phi_x = -sgn(x) sqrt((c phi^2 - 2 phi^{p+1}/(p+1)) / (1 + a phi^2)).
    The square root degenerates at the crest, so the first step off the
    turning point uses the series phi = phi_max - m x^2/4, m = -g'(phi_max).
    """
    if c <= 0:
        raise ValueError("wave speed c must be positive")
    if p <= 1:
        raise ValueError("power p must exceed 1")
    if a < 0:
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
