"""Linear-level water-wave and two-fluid interface criteria.

Flat-state Dirichlet-Neumann symbol, its first shape derivative evaluated at
the flat state, the completed-square coercivity multiplier of the traveling
frame, Froude/Bond sufficient conditions, and the Kelvin-Helmholtz /
Rayleigh-Taylor multipliers and bounds.  The shape derivative is restricted
to h = 0: away from the flat state it would need the nonlinear operator,
which is out of scope here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OneFluidConfig",
    "TwoFluidConfig",
    "dn_flat_symbol",
    "dn_shape_derivative_flat",
    "capillary_multiplier",
    "froude_bond",
    "kh_rt_multiplier",
    "kh_bound",
]


_DEPTH_MESSAGE = "depth must be positive (math.inf allowed)"


def _finite(cfg, *names) -> None:
    """Refuse (ValueError) a field of cfg, or an entry of a sequence field,
    that is not a finite number."""
    for name in names:
        x = getattr(cfg, name)
        entries = ([(f"{name}[{i}]", v) for i, v in enumerate(x)]
                   if np.ndim(x) else [(name, x)])
        for label, v in entries:
            if not math.isfinite(v):
                raise ValueError(f"{label} must be a finite number, got {v}")


def _velocity(name: str, v, xi: np.ndarray) -> np.ndarray:
    """The velocity v as an array of xi's length; a mismatch is refused
    (ValueError) rather than padded or cut."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape != xi.shape:
        raise ValueError(f"{name} has {v.size} entries but xi has {xi.size}")
    return v


@dataclass(frozen=True)
class OneFluidConfig:
    g: float
    sigma: float
    h0: float                      # math.inf for infinite depth
    c_vec: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        _finite(self, "g", "sigma", "c_vec")
        if self.sigma <= 0:
            raise ValueError("surface tension sigma must be positive")
        if self.g < 0:
            raise ValueError("gravity must be nonnegative")
        if not (self.h0 > 0):
            raise ValueError(_DEPTH_MESSAGE)

    @property
    def c_norm(self) -> float:
        return float(np.linalg.norm(self.c_vec))


@dataclass(frozen=True)
class TwoFluidConfig:
    rho_plus: float
    rho_minus: float
    nu_plus: tuple[float, ...]
    nu_minus: tuple[float, ...]
    h_plus: float
    h_minus: float
    g: float
    sigma: float

    def __post_init__(self):
        _finite(self, "rho_plus", "rho_minus", "nu_plus", "nu_minus", "g",
                "sigma")
        if self.rho_plus <= 0 or self.rho_minus <= 0:
            raise ValueError("densities must be positive")
        if self.sigma <= 0:
            raise ValueError("surface tension sigma must be positive")
        if not (self.h_plus > 0 and self.h_minus > 0):
            raise ValueError("depths must be positive (math.inf allowed)")


def dn_flat_symbol(k: float, h0: float) -> float:
    """Flat Dirichlet-Neumann symbol: k tanh(h0 k), or k at infinite depth."""
    if not (h0 > 0):
        raise ValueError(_DEPTH_MESSAGE)
    if k < 0:
        raise ValueError("wavenumber magnitude k must be nonnegative")
    if k == 0.0:
        return 0.0
    if math.isinf(h0):
        return float(k)
    return float(k * math.tanh(h0 * k))


def _tanh_ratio(tau: float, h: float) -> float:
    """tau / tanh(h tau) with the analytic limit 1/h as tau -> 0."""
    if tau == 0.0:
        return 0.0 if math.isinf(h) else 1.0 / h
    if math.isinf(h):
        return tau
    x = h * tau
    if x > 36.0:          # tanh saturates; avoids overflow paths
        return tau
    return tau / math.tanh(x)


def dn_shape_derivative_flat(eta, phi1, phi2, h0: float,
                             period: float = 2.0 * math.pi) -> float:
    """<DG(0)(eta) Phi1, Phi2> on a uniform periodic grid.

    At the flat state the shape derivative reduces to
    int eta (grad Phi1 . grad Phi2 - (G(0)Phi1)(G(0)Phi2)) dx, evaluated with
    discrete Fourier multipliers; exact for band-limited input up to rounding.
    The mean of Phi is irrelevant (both multipliers vanish at k = 0).
    """
    eta = np.asarray(eta, dtype=float)
    phi1 = np.asarray(phi1, dtype=float)
    phi2 = np.asarray(phi2, dtype=float)
    n = eta.shape[0]
    if phi1.shape[0] != n or phi2.shape[0] != n:
        raise ValueError("grid length mismatch")
    if n & (n - 1):
        raise ValueError("grid length must be a power of two")
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=1.0 / n) / period
    absk = np.abs(k)
    gsym = np.where(absk > 0,
                    absk if math.isinf(h0) else absk * np.tanh(h0 * absk),
                    0.0)

    def apply_mult(f, mult):
        return np.real(np.fft.ifft(mult * np.fft.fft(f)))

    grad1 = apply_mult(phi1, 1j * k)
    grad2 = apply_mult(phi2, 1j * k)
    g1 = apply_mult(phi1, gsym)
    g2 = apply_mult(phi2, gsym)
    dx = period / n
    return float(np.sum(eta * (grad1 * grad2 - g1 * g2)) * dx)


def capillary_multiplier(xi, cfg: OneFluidConfig) -> float:
    """Completed-square multiplier m(xi) = -(c.xi)^2/G0(|xi|) + g + sigma|xi|^2.

    Negative values indicate failure of coercivity at that mode.  The zero
    mode is quotiented out and refused, and so is a c_vec whose length is
    not xi's.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    k = float(np.linalg.norm(xi))
    if k == 0.0:
        raise ValueError("xi = 0: symbol singular, mode is quotiented")
    cdot = float(np.dot(_velocity("c_vec", cfg.c_vec, xi), xi))
    # (c.xi)^2 / (k tanh(h0 k)) = (c.xihat)^2 * k / tanh(h0 k)
    transport = (cdot / k) ** 2 * _tanh_ratio(k, cfg.h0)
    return float(-transport + cfg.g + cfg.sigma * k * k)


def froude_bond(cfg: OneFluidConfig) -> tuple[float, float, bool]:
    """Froude number |c|/sqrt(g h0), Bond number g h0^2/sigma, and the flag of
    the sufficient coercivity condition F < 1 and B <= 3 F^{-2}."""
    if math.isinf(cfg.h0):
        raise ValueError("Froude undefined at infinite depth")
    if cfg.g <= 0:
        raise ValueError("Froude requires positive gravity")
    c = cfg.c_norm
    froude = c / math.sqrt(cfg.g * cfg.h0)
    bond = cfg.g * cfg.h0 ** 2 / cfg.sigma
    flag = (cfg.g * cfg.h0 > c * c) and (3.0 * cfg.sigma >= c * c * cfg.h0)
    return froude, bond, flag


def kh_rt_multiplier(xi, cfg: TwoFluidConfig) -> float:
    """Two-fluid interface multiplier at the flat state:

    sigma|xi|^2 + g(rho_- - rho_+) - sum_pm rho_pm (nu_pm . xi)^2 /
    (|xi| tanh(h_pm |xi|)).  A velocity whose length is not xi's is refused.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    k = float(np.linalg.norm(xi))
    if k == 0.0:
        raise ValueError("xi = 0: symbol singular, mode is quotiented")
    out = cfg.sigma * k * k + cfg.g * (cfg.rho_minus - cfg.rho_plus)
    for rho, name, nu, h in (
            (cfg.rho_plus, "nu_plus", cfg.nu_plus, cfg.h_plus),
            (cfg.rho_minus, "nu_minus", cfg.nu_minus, cfg.h_minus)):
        cdot = float(np.dot(_velocity(name, nu, xi), xi))
        out -= rho * (cdot / k) ** 2 * _tanh_ratio(k, h)
    return float(out)


def _kh_objective(tau: float, cfg: TwoFluidConfig) -> float:
    val = cfg.sigma * tau * tau + cfg.g * (cfg.rho_minus - cfg.rho_plus)
    for rho, nu, h in ((cfg.rho_plus, cfg.nu_plus, cfg.h_plus),
                       (cfg.rho_minus, cfg.nu_minus, cfg.h_minus)):
        nu2 = float(np.dot(nu, nu))
        val -= rho * nu2 * _tanh_ratio(tau, h)
    return val


def kh_bound(cfg: TwoFluidConfig) -> float:
    """Lower bound on the interface form: min over tau >= 0 of

        sigma tau^2 + g(rho_- - rho_+) - sum rho |nu|^2 tau / tanh(h tau).

    Closed form at infinite depths: g(rho_- - rho_+) - (sum rho |nu|^2)^2 /
    (4 sigma); otherwise a scan plus golden-section refinement on
    (0, max(1, b/sigma)], b = sum rho |nu|^2.
    """
    b = (cfg.rho_plus * float(np.dot(cfg.nu_plus, cfg.nu_plus))
         + cfg.rho_minus * float(np.dot(cfg.nu_minus, cfg.nu_minus)))
    grho = cfg.g * (cfg.rho_minus - cfg.rho_plus)
    if math.isinf(cfg.h_plus) and math.isinf(cfg.h_minus):
        return grho - b * b / (4.0 * cfg.sigma)
    tau_max = max(1.0, b / cfg.sigma)
    taus = np.linspace(0.0, tau_max, 2001)
    vals = np.array([_kh_objective(t, cfg) for t in taus])
    j = int(np.argmin(vals))
    lo = taus[max(j - 1, 0)]
    hi = taus[min(j + 1, len(taus) - 1)]
    # golden-section refinement of the bracketing interval
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, c = lo, hi
    x1 = c - invphi * (c - a)
    x2 = a + invphi * (c - a)
    f1, f2 = _kh_objective(x1, cfg), _kh_objective(x2, cfg)
    for _ in range(120):
        if f1 <= f2:
            c, x2, f2 = x2, x1, f1
            x1 = c - invphi * (c - a)
            f1 = _kh_objective(x1, cfg)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (c - a)
            f2 = _kh_objective(x2, cfg)
    best = min(f1, f2, vals[j], _kh_objective(0.0, cfg))
    return float(best)
