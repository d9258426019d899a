import dataclasses
import math

import numpy as np
import pytest

from lpmanifolds.waterwave import (
    OneFluidConfig,
    TwoFluidConfig,
    capillary_multiplier,
    dn_flat_symbol,
    dn_shape_derivative_flat,
    froude_bond,
    kh_bound,
    kh_rt_multiplier,
)


# ------------------------------------------------------------------- symbol

def test_symbol_zero_mode():
    assert dn_flat_symbol(0.0, 1.0) == 0.0
    assert dn_flat_symbol(0.0, math.inf) == 0.0


def test_symbol_infinite_depth():
    assert dn_flat_symbol(3.0, math.inf) == pytest.approx(3.0)


def test_symbol_finite_depth():
    assert dn_flat_symbol(1.0, 1.0) == pytest.approx(math.tanh(1.0))


def test_symbol_monotone_and_depth_limit():
    for k in (0.1, 1.0, 10.0):
        vals = [dn_flat_symbol(k, h) for h in (1.0, 10.0, 100.0)]
        assert vals == sorted(vals)
        assert abs(vals[-1] - k) <= k * 1e-6 + 1e-12 or k * 100 < 5
    # increasing in k at fixed depth
    ks = np.linspace(0.0, 5.0, 51)
    sym = [dn_flat_symbol(k, 2.0) for k in ks]
    assert all(b >= a for a, b in zip(sym, sym[1:]))


def test_symbol_rejects_negative():
    with pytest.raises(ValueError):
        dn_flat_symbol(-1.0, 1.0)


@pytest.mark.parametrize("h0", [0.0, -1.0, math.nan])
def test_symbol_rejects_depth_that_is_not_positive(h0):
    # -1 once gave negative symbols; the message is OneFluidConfig's
    with pytest.raises(ValueError) as exc:
        dn_flat_symbol(1.0, h0)
    with pytest.raises(ValueError) as cfg_exc:
        OneFluidConfig(g=1.0, sigma=1.0, h0=h0)
    assert str(exc.value) == str(cfg_exc.value)


# --------------------------------------------------------- shape derivative

def _grid(n=128, period=2 * math.pi):
    return np.arange(n) * period / n


def test_shape_derivative_zero_eta():
    x = _grid()
    val = dn_shape_derivative_flat(np.zeros_like(x), np.cos(x), np.sin(x),
                                   math.inf)
    assert val == pytest.approx(0.0, abs=1e-14)


def test_shape_derivative_constant_eta_orthogonality():
    x = _grid()
    k = 3.0
    val = dn_shape_derivative_flat(np.ones_like(x), np.cos(k * x),
                                   np.cos(k * x), math.inf)
    # int(k^2 sin^2 - k^2 cos^2) over a period = 0
    assert val == pytest.approx(0.0, abs=1e-10)


def test_shape_derivative_against_dense_quadrature():
    n = 128
    x = _grid(n)
    eta = np.cos(x)
    phi1 = np.cos(x)
    phi2 = np.cos(2 * x)
    got = dn_shape_derivative_flat(eta, phi1, phi2, math.inf)
    # oracle: analytic multipliers on a fine grid, direct quadrature
    xf = _grid(4096)
    grad1, g1 = -np.sin(xf), np.cos(xf)            # G(0)cos(kx) = k cos(kx)
    grad2, g2 = -2 * np.sin(2 * xf), 2 * np.cos(2 * xf)
    oracle = np.sum(np.cos(xf) * (grad1 * grad2 - g1 * g2)) * (
        2 * math.pi / 4096)
    assert got == pytest.approx(oracle, abs=1e-12)


def test_shape_derivative_finite_depth_oracle():
    n = 256
    x = _grid(n)
    h0 = 0.7
    eta = np.cos(2 * x)
    phi1, phi2 = np.cos(x), np.cos(3 * x)
    got = dn_shape_derivative_flat(eta, phi1, phi2, h0)
    xf = _grid(8192)
    g1 = math.tanh(h0) * np.cos(xf)
    g3 = 3 * math.tanh(3 * h0) * np.cos(3 * xf)
    grad1, grad3 = -np.sin(xf), -3 * np.sin(3 * xf)
    oracle = np.sum(np.cos(2 * xf) * (grad1 * grad3 - g1 * g3)) * (
        2 * math.pi / 8192)
    assert got == pytest.approx(oracle, abs=1e-12)


def test_shape_derivative_symmetric_in_phis():
    rng = np.random.default_rng(12)
    n = 64
    x = _grid(n)
    eta = rng.normal(size=n)
    phi1 = np.cos(x) + 0.3 * np.sin(2 * x)
    phi2 = np.sin(x) - 0.5 * np.cos(3 * x)
    a = dn_shape_derivative_flat(eta, phi1, phi2, 1.3)
    b = dn_shape_derivative_flat(eta, phi2, phi1, 1.3)
    assert abs(a - b) <= 1e-14 * max(abs(a), 1.0)


def test_shape_derivative_grid_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        dn_shape_derivative_flat(np.zeros(8), np.zeros(8), np.zeros(16), 1.0)


def test_shape_derivative_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        dn_shape_derivative_flat(np.zeros(12), np.zeros(12), np.zeros(12),
                                 1.0)


# -------------------------------------------------------- coercivity scans

def test_capillary_no_transport_positive():
    cfg = OneFluidConfig(g=1.0, sigma=1.0, h0=math.inf, c_vec=(0.0,))
    for k in np.logspace(-2, 2, 41):
        assert capillary_multiplier(np.array([k]), cfg) > 0


def test_capillary_threshold_speed():
    # infinite depth, g = sigma = 1: m = -c^2 k + 1 + k^2; threshold at
    # c^2 = min_k (k + 1/k) = 2
    just_below = OneFluidConfig(g=1.0, sigma=1.0, h0=math.inf,
                                c_vec=(math.sqrt(2.0) - 1e-6,))
    just_above = OneFluidConfig(g=1.0, sigma=1.0, h0=math.inf,
                                c_vec=(math.sqrt(2.0) + 1e-3,))
    ks = np.linspace(0.5, 2.0, 1501)
    assert min(capillary_multiplier(np.array([k]), just_below)
               for k in ks) >= 0.0
    assert min(capillary_multiplier(np.array([k]), just_above)
               for k in ks) < 0.0
    cfg2 = OneFluidConfig(g=1.0, sigma=1.0, h0=math.inf, c_vec=(2.0,))
    assert capillary_multiplier(np.array([1.0]), cfg2) == pytest.approx(-2.0)


def test_capillary_long_wave_froude_consistency():
    cfg = OneFluidConfig(g=1.0, sigma=1.0, h0=2.0, c_vec=(1.0,))
    k = 1e-3
    m = capillary_multiplier(np.array([k]), cfg)
    expect = cfg.g - cfg.c_norm ** 2 / cfg.h0
    assert m == pytest.approx(expect, abs=1e-4)


def test_capillary_zero_mode_rejected():
    cfg = OneFluidConfig(g=1.0, sigma=1.0, h0=1.0)
    with pytest.raises(ValueError, match="quotiented"):
        capillary_multiplier(np.array([0.0]), cfg)


def test_capillary_two_dimensional_mode():
    # xi = (1, 1), c = (0.5, 0): c.xi = 0.5 and k = |xi| = sqrt(2), so the
    # multiplier is g + sigma k^2 - (c.xi / k)^2 k / tanh(h0 k)
    cfg = OneFluidConfig(g=1.0, sigma=1.0, h0=1.0, c_vec=(0.5, 0.0))
    m = capillary_multiplier(np.array([1.0, 1.0]), cfg)
    k = math.sqrt(2.0)
    assert m == pytest.approx(3.0 - 0.125 * k / math.tanh(k), rel=1e-14)
    assert m == pytest.approx(2.801, abs=1e-3)


@pytest.mark.parametrize("c_vec, xi, message", [
    ((0.5,), (1.0, 1.0), "c_vec has 1 entries but xi has 2"),
    ((0.1, 5.0), (1.0,), "c_vec has 2 entries but xi has 1"),
], ids=["short", "long"])
def test_capillary_refuses_a_velocity_of_another_length(c_vec, xi, message):
    # the velocity was resized to xi's length: (0.5,) became (0.5, 0.5),
    # and the 5.0 of (0.1, 5.0) was dropped
    cfg = OneFluidConfig(g=1.0, sigma=1.0, h0=1.0, c_vec=c_vec)
    with pytest.raises(ValueError, match=message):
        capillary_multiplier(np.array(xi), cfg)


# ---------------------------------------------------------------- froude-bond

def test_froude_bond_basic():
    cfg = OneFluidConfig(g=1.0, sigma=1.0, h0=1.0, c_vec=(0.5,))
    fr, bo, flag = froude_bond(cfg)
    assert fr == pytest.approx(0.5)
    assert bo == pytest.approx(1.0)
    assert flag


def test_froude_bond_boundary_speed():
    cfg = OneFluidConfig(g=1.0, sigma=1.0, h0=1.0, c_vec=(1.0,))
    fr, _, flag = froude_bond(cfg)
    assert fr == pytest.approx(1.0)
    assert not flag


def test_froude_bond_infinite_depth_rejected():
    cfg = OneFluidConfig(g=1.0, sigma=1.0, h0=math.inf, c_vec=(0.5,))
    with pytest.raises(ValueError, match="Froude"):
        froude_bond(cfg)


def test_froude_flag_implies_capillary_positive():
    for c in (0.2, 0.5, 0.9):
        cfg = OneFluidConfig(g=1.0, sigma=1.0, h0=1.0, c_vec=(c,))
        _, _, flag = froude_bond(cfg)
        if not flag:
            continue
        for k in np.logspace(-3, 3, 301):
            assert capillary_multiplier(np.array([k]), cfg) >= 0.0


def test_morse_count_matches_positivity():
    stable = OneFluidConfig(g=1.0, sigma=1.0, h0=math.inf, c_vec=(1.0,))
    unstable = OneFluidConfig(g=1.0, sigma=1.0, h0=math.inf, c_vec=(1.6,))
    for cfg, expect_zero in ((stable, True), (unstable, False)):
        count = sum(
            1 for k in range(1, 129)
            if capillary_multiplier(np.array([float(k)]), cfg) < 0)
        assert (count == 0) == expect_zero


# ------------------------------------------------------------------ kh / rt

def _cfg2(rho_p=1.0, rho_m=2.0, nu_p=0.0, nu_m=0.0, h_p=math.inf,
          h_m=math.inf, g=1.0, sigma=1.0):
    return TwoFluidConfig(rho_plus=rho_p, rho_minus=rho_m, nu_plus=(nu_p,),
                          nu_minus=(nu_m,), h_plus=h_p, h_minus=h_m, g=g,
                          sigma=sigma)


def test_kh_rt_stable_stratification():
    cfg = _cfg2()
    for k in np.logspace(-2, 2, 41):
        assert kh_rt_multiplier(np.array([k]), cfg) > 0


def test_kh_rt_rayleigh_taylor_band():
    cfg = _cfg2(rho_p=2.0, rho_m=1.0)   # heavy on top
    kc = math.sqrt(cfg.g * (cfg.rho_plus - cfg.rho_minus) / cfg.sigma)
    assert kh_rt_multiplier(np.array([0.5 * kc]), cfg) < 0
    assert kh_rt_multiplier(np.array([2.0 * kc]), cfg) > 0


def test_kh_rt_shear_band():
    cfg = _cfg2(rho_p=1.0, rho_m=1.0, nu_p=1.0, nu_m=-1.0, g=0.0)
    # k^2 - 2k < 0 iff 0 < k < 2
    assert kh_rt_multiplier(np.array([1.0]), cfg) == pytest.approx(-1.0)
    assert kh_rt_multiplier(np.array([3.0]), cfg) == pytest.approx(3.0)


@pytest.mark.parametrize("nu_plus, nu_minus, xi, message", [
    ((0.5,), (0.0, 0.0), (1.0, 1.0), "nu_plus has 1 entries but xi has 2"),
    ((0.0,), (0.1, 5.0), (1.0,), "nu_minus has 2 entries but xi has 1"),
], ids=["nu_plus-short", "nu_minus-long"])
def test_kh_rt_refuses_a_velocity_of_another_length(nu_plus, nu_minus, xi,
                                                    message):
    cfg = dataclasses.replace(_cfg2(), nu_plus=nu_plus, nu_minus=nu_minus)
    with pytest.raises(ValueError, match=message):
        kh_rt_multiplier(np.array(xi), cfg)


def test_kh_bound_no_shear():
    cfg = _cfg2()
    assert kh_bound(cfg) == pytest.approx(1.0, abs=1e-10)


def test_kh_bound_threshold_closed_form():
    cfg = _cfg2(nu_p=1.0, nu_m=1.0)   # b = 1 + 2 = ... rho|nu|^2 = 1+2 = 3?
    # choose so that b = 2: rho_p nu_p^2 + rho_m nu_m^2 = 2
    cfg = _cfg2(nu_p=1.0, nu_m=math.sqrt(0.5))
    bound = kh_bound(cfg)
    assert bound == pytest.approx(1.0 - 4.0 / 4.0, abs=1e-14)
    assert bound == 0.0


def test_kh_bound_unstable_case():
    # b = 3: bound = 1 - 9/4
    cfg = _cfg2(nu_p=math.sqrt(1.5), nu_m=math.sqrt(0.75))
    assert kh_bound(cfg) == pytest.approx(1.0 - 9.0 / 4.0, abs=1e-12)


def test_kh_bound_finite_depth_converges_to_closed_form():
    deep = _cfg2(nu_p=1.0, nu_m=math.sqrt(0.5), h_p=1e3, h_m=1e3)
    assert abs(kh_bound(deep) - 0.0) <= 1e-6


def test_kh_bound_lower_bounds_scan():
    cfg = _cfg2(nu_p=0.8, nu_m=0.6, h_p=2.0, h_m=5.0)
    bound = kh_bound(cfg)
    worst = min(kh_rt_multiplier(np.array([k]), cfg)
                for k in np.logspace(-3, 2, 301))
    assert worst >= bound - 1e-8


def test_kh_zero_mode_rejected():
    with pytest.raises(ValueError):
        kh_rt_multiplier(np.array([0.0]), _cfg2())


# --------------------------------------------------------------- validation

@pytest.mark.parametrize("field, value, message", [
    ("g", math.nan, "g must be a finite number, got nan"),
    ("g", math.inf, "g must be a finite number, got inf"),
    ("sigma", math.nan, "sigma must be a finite number, got nan"),
    ("c_vec", (0.5, math.nan), "c_vec[1] must be a finite number, got nan"),
], ids=["g-nan", "g-inf", "sigma-nan", "c_vec-nan"])
def test_one_fluid_refuses_non_finite_parameters(field, value, message):
    # each of these once reached the criteria and printed nan
    kwargs = dict(g=1.0, sigma=1.0, h0=1.0, c_vec=(0.5, 0.0))
    kwargs[field] = value
    with pytest.raises(ValueError) as exc:
        OneFluidConfig(**kwargs)
    assert str(exc.value) == message


@pytest.mark.parametrize("field, value, message", [
    ("rho_plus", math.nan, "rho_plus must be a finite number, got nan"),
    ("rho_minus", math.inf, "rho_minus must be a finite number, got inf"),
    ("nu_plus", (math.nan,), "nu_plus[0] must be a finite number, got nan"),
    ("nu_minus", (0.0, math.inf),
     "nu_minus[1] must be a finite number, got inf"),
    ("g", math.nan, "g must be a finite number, got nan"),
    ("sigma", math.nan, "sigma must be a finite number, got nan"),
], ids=["rho_plus", "rho_minus", "nu_plus", "nu_minus", "g", "sigma"])
def test_two_fluid_refuses_non_finite_parameters(field, value, message):
    kwargs = dataclasses.asdict(_cfg2())
    kwargs[field] = value
    with pytest.raises(ValueError) as exc:
        TwoFluidConfig(**kwargs)
    assert str(exc.value) == message
