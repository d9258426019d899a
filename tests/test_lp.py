import math

import numpy as np
import pytest

from lpmanifolds.graded import NormLadder, OrbitGrid
from lpmanifolds.linalg import (
    Timeline,
    dissipativity_check,
    eigen_split,
    growth_bound_check,
    lyapunov_form,
)
from lpmanifolds.lp import (
    LpConfig,
    NoContractionError,
    build_manifold_graph,
    contraction_budget,
    decay_rate_fit,
    invariance_residual,
    lp_apply,
    lp_grid,
    lp_solve,
    lp_variational,
    quasilinearize,
    reversed_model,
    split_field,
)
from lpmanifolds.models import (
    MmtParams,
    custom_model,
    mmt_galerkin,
    mmt_mode_set,
    reaction_diffusion,
    saddle_toy,
)
from lpmanifolds.oracles import backward_shoot


def saddle1_pieces():
    m = saddle_toy("saddle1")
    sp = eigen_split(m.jacobian(m.equilibrium), 0.5)
    return m, sp, split_field(m, sp)


def rd_pieces(lam_param=2.0, modes=6, gap=0.5):
    m = reaction_diffusion(lam_param, modes)
    sp = eigen_split(m.jacobian(m.equilibrium), gap)
    return m, sp, split_field(m, sp)


def mmt_mi_pieces(half=3):
    p = MmtParams(alpha=1.0, beta=0.0, sigma=-1, a=1.2, xi0=0,
                  mode_set=mmt_mode_set(0, half))
    m = mmt_galerkin(p)
    sp = eigen_split(m.jacobian(m.equilibrium), 0.5)
    return m, sp, split_field(m, sp)


CFG1 = LpConfig(lam=0.9, T_max=20.0, dt=0.01, eps=0.12, tol=1e-10)


# ---------------------------------------------------------------- split_field

def test_split_saddle1_blocks():
    _, _, pieces = saddle1_pieces()
    assert pieces.A_plus == pytest.approx(np.array([[1.0]]), abs=1e-12)
    assert pieces.A_rest == pytest.approx(np.array([[-1.0]]), abs=1e-12)
    y = np.array([[0.2, -0.1]])
    f = pieces.f_split(y)
    # remainder is (0, x^2) in the canonical basis
    assert f[0] == pytest.approx(np.array([0.0, 0.04]), abs=1e-14)


def test_split_linear_model_zero_remainder():
    A = np.array([[1.5, 0.3], [0.0, -0.7]])
    m = custom_model("lin", lambda u: A @ u, lambda u: A, np.zeros(2))
    sp = eigen_split(A, 0.3)
    pieces = split_field(m, sp)
    rng = np.random.default_rng(0)
    for _ in range(5):
        y = rng.normal(size=(1, 2)) * 0.1
        assert np.abs(pieces.f_split(y)).max() <= 1e-12


def test_split_mmt_remainder_superlinear():
    m, sp, pieces = mmt_mi_pieces(half=2)
    rng = np.random.default_rng(3)
    direction = rng.normal(size=m.dimension)
    direction /= np.linalg.norm(direction)
    ss = np.logspace(-4, -1, 10)
    norms = []
    for s in ss:
        y = (s * direction)[None, :] @ pieces.B.T @ pieces.Binv.T  # = s*dir
        norms.append(np.linalg.norm(pieces.f_split(s * direction[None, :])))
    slope = np.polyfit(np.log(ss), np.log(norms), 1)[0]
    assert slope >= 1.9


# ------------------------------------------------------------------- lp_apply

def test_lp_apply_zero_remainder_is_linear_flow():
    A = np.diag([1.0, -1.0])
    m = custom_model("lin", lambda u: A @ u, lambda u: A, np.zeros(2))
    sp = eigen_split(A, 0.5)
    pieces = split_field(m, sp)
    cfg = LpConfig(lam=0.9, T_max=5.0, dt=0.01, eps=1.0, tol=1e-12)
    times = lp_grid(cfg)
    Y = np.zeros((len(times), 2))
    Ynew, tail = lp_apply(pieces, cfg, np.array([0.5]), Y)
    assert Ynew[:, 0] == pytest.approx(0.5 * np.exp(times), abs=1e-12)
    assert np.abs(Ynew[:, 1]).max() == 0.0
    assert tail == 0.0


def test_lp_apply_first_and_second_iterate_saddle1():
    _, _, pieces = saddle1_pieces()
    cfg = LpConfig(lam=0.9, T_max=20.0, dt=0.005, eps=0.2, tol=1e-12)
    times = lp_grid(cfg)
    x0 = 0.1
    Y = np.zeros((len(times), 2))
    Y1, _ = lp_apply(pieces, cfg, np.array([x0]), Y)
    assert Y1[:, 0] == pytest.approx(x0 * np.exp(times), abs=1e-12)
    assert np.abs(Y1[:, 1]).max() <= 1e-14
    Y2, _ = lp_apply(pieces, cfg, np.array([x0]), Y1)
    # closed form of the second iterate: y(t) = x0^2 e^{2t} / 3
    expect = x0 * x0 * np.exp(2.0 * times) / 3.0
    assert np.max(np.abs(Y2[:, 1] - expect)) <= 1e-7


# ------------------------------------------------------------------- lp_solve

def test_lp_solve_zero_base_point():
    _, _, pieces = saddle1_pieces()
    res = lp_solve(pieces, CFG1, np.zeros(1))
    assert np.abs(res.h_value).max() == 0.0
    assert np.abs(res.Y).max() == 0.0


def test_lp_solve_saddle1_exact_manifold():
    _, _, pieces = saddle1_pieces()
    res = lp_solve(pieces, CFG1, np.array([0.1]))
    assert res.h_value[0] == pytest.approx(1.0 / 300.0, abs=1e-6)


def test_lp_solve_saddle2_stable_side():
    m = reversed_model(saddle_toy("saddle2"))
    sp = eigen_split(m.jacobian(m.equilibrium), 0.5)
    pieces = split_field(m, sp)
    cfg = LpConfig(lam=0.9, T_max=20.0, dt=0.005, eps=0.25, tol=1e-11)
    res = lp_solve(pieces, cfg, np.array([0.2]))
    assert res.h_value[0] == pytest.approx(-0.01, abs=1e-6)


def test_lp_solve_lambda_validation():
    _, _, pieces = saddle1_pieces()
    with pytest.raises(ValueError, match="gap"):
        lp_solve(pieces, LpConfig(lam=1.5, T_max=10.0, dt=0.01, eps=0.1),
                 np.array([0.05]))


def test_lp_solve_eps_validation():
    _, _, pieces = saddle1_pieces()
    with pytest.raises(ValueError, match="ball"):
        lp_solve(pieces, CFG1, np.array([0.5]))


def _coupled_saddle():
    # x' = x + y^2, y' = -y + x^2: the remainder feeds back into both blocks,
    # so the iteration genuinely contracts only for small amplitudes
    def F(u):
        x, y = u
        return np.array([x + y * y, -y + x * x])

    def jac(u):
        x, y = u
        return np.array([[1.0, 2.0 * y], [2.0 * x, -1.0]])

    m = custom_model("coupled", F, jac, np.zeros(2))
    sp = eigen_split(m.jacobian(m.equilibrium), 0.5)
    return m, sp, split_field(m, sp)


def test_lp_solve_no_contraction_error():
    # far outside the contraction regime: eps grossly too large
    _, _, pieces = _coupled_saddle()
    cfg = LpConfig(lam=0.9, T_max=12.0, dt=0.01, eps=80.0, tol=1e-12,
                   max_iter=30)
    with pytest.raises((NoContractionError, FloatingPointError)):
        lp_solve(pieces, cfg, np.array([5.0]))


def test_lp_solve_coupled_small_amplitude_contracts():
    _, _, pieces = _coupled_saddle()
    cfg = LpConfig(lam=0.9, T_max=20.0, dt=0.005, eps=0.1, tol=1e-11)
    res = lp_solve(pieces, cfg, np.array([0.05]))
    assert res.diagnostics["contraction_factor"] < 0.2
    # leading coefficient of the graph: h(x) = x^2/3 + O(x^4) for this field
    assert res.h_value[0] == pytest.approx(0.05 ** 2 / 3.0, abs=1e-5)


def test_lp_fixed_point_property():
    _, _, pieces = saddle1_pieces()
    res = lp_solve(pieces, CFG1, np.array([0.08]))
    assert res.diagnostics["fp_residual"] <= 2 * CFG1.tol


def test_lp_trajectory_residual_scales_with_dt():
    _, _, pieces = saddle1_pieces()
    res_coarse = lp_solve(
        pieces, LpConfig(lam=0.9, T_max=20.0, dt=0.02, eps=0.12, tol=1e-11),
        np.array([0.1]))
    res_fine = lp_solve(
        pieces, LpConfig(lam=0.9, T_max=20.0, dt=0.005, eps=0.12, tol=1e-11),
        np.array([0.1]))
    rc = res_coarse.diagnostics["trajectory_residual"]
    rf = res_fine.diagnostics["trajectory_residual"]
    assert rf < rc
    order = math.log(rc / rf) / math.log(4.0)
    assert order > 1.5   # centered-difference residual is O(dt^2)


def test_lp_parameter_robustness():
    # numerical analogue of parameter independence: doubling the horizon or
    # moving lambda inside the gap changes h by <= 10 tol
    _, sp, pieces = saddle1_pieces()
    base = lp_solve(pieces, CFG1, np.array([0.1])).h_value
    long_T = lp_solve(
        pieces, LpConfig(lam=0.9, T_max=40.0, dt=0.01, eps=0.12, tol=1e-10),
        np.array([0.1])).h_value
    gap = sp.realized_gap
    for dlam in (-0.2 * gap, 0.2 * gap):
        other = lp_solve(
            pieces, LpConfig(lam=0.9 + dlam if 0.9 + dlam < sp.lambda_plus
                             else 0.95, T_max=20.0, dt=0.01, eps=0.12,
                             tol=1e-10),
            np.array([0.1])).h_value
        assert np.abs(other - base).max() <= 10 * CFG1.tol + 1e-7
    assert np.abs(long_T - base).max() <= 10 * CFG1.tol + 1e-7


def test_lp_solve_mmt_63_modes():
    # the declared scope: 63 retained modes, state dimension 126
    m, sp, pieces = mmt_mi_pieces(half=31)
    assert m.dimension == 126 and pieces.d_rest == 124
    cfg = LpConfig(lam=0.8 * sp.lambda_plus, T_max=12.0 / sp.lambda_plus,
                   dt=0.005, eps=0.05, tol=1e-9)
    base = 0.03 * np.ones(sp.dim_plus) / math.sqrt(sp.dim_plus)
    res = lp_solve(pieces, cfg, base)
    assert res.diagnostics["iterations"] < cfg.max_iter
    assert res.diagnostics["fp_residual"] <= 1e-8
    omega = 0.5 * (sp.rest_max_re + sp.lambda_plus)
    form = lyapunov_form(pieces.A_rest, omega)   # its residual gate: 1e-10
    assert dissipativity_check(form, pieces.A_rest, omega) <= 0.0


# ---------------------------------------------------------------- decay fits

def test_decay_fit_pure_exponential():
    ladder = NormLadder.euclidean(1)
    times = np.linspace(-10.0, 0.0, 101)
    orbit = OrbitGrid(times, np.exp(2.0 * times).reshape(-1, 1))
    lam, r2 = decay_rate_fit(orbit, ladder, 0.0)
    assert lam == pytest.approx(2.0, abs=1e-10)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_decay_fit_saddle1_orbit():
    _, _, pieces = saddle1_pieces()
    res = lp_solve(pieces, CFG1, np.array([0.1]))
    lam, r2 = decay_rate_fit(OrbitGrid(res.orbit.times, res.orbit.states),
                             NormLadder.euclidean(2), 0.0)
    assert lam == pytest.approx(1.0, abs=1e-3)


def test_decay_fit_window_moves_toward_slow_rate():
    ladder = NormLadder.euclidean(1)
    times = np.linspace(-30.0, 0.0, 601)
    states = (np.exp(times) + np.exp(2.0 * times)).reshape(-1, 1)
    full, _ = decay_rate_fit(OrbitGrid(times, states), ladder, 0.0)
    assert 1.0 < full < 2.0
    deep = OrbitGrid(times[:300], states[:300])
    deep_fit, _ = decay_rate_fit(deep, ladder, 0.0)
    assert abs(deep_fit - 1.0) < abs(full - 1.0)


def test_decay_fit_trivial_orbit_rejected():
    ladder = NormLadder.euclidean(1)
    times = np.linspace(-5.0, 0.0, 51)
    with pytest.raises(ValueError, match="trivial"):
        decay_rate_fit(OrbitGrid(times, np.zeros((51, 1))), ladder, 0.0)


# -------------------------------------------------------------------- graphs

def test_graph_saddle1_pointwise():
    _, _, pieces = saddle1_pieces()
    pts = np.linspace(-0.1, 0.1, 21).reshape(-1, 1)
    graph = build_manifold_graph(pieces, CFG1, grid_spec=pts)
    assert all(s == "ok" for s in graph.status)
    expect = pts[:, 0] ** 2 / 3.0
    assert np.max(np.abs(graph.values[:, 0] - expect)) <= 1e-6
    # h(0) = 0 at the center sample
    j0 = int(np.argmin(np.abs(pts[:, 0])))
    assert abs(graph.values[j0, 0]) <= CFG1.tol


def test_graph_marks_failures_without_aborting():
    _, _, pieces = _coupled_saddle()
    cfg = LpConfig(lam=0.9, T_max=12.0, dt=0.01, eps=90.0, tol=1e-10,
                   max_iter=25)
    pts = np.array([[0.05], [5.0]])
    graph = build_manifold_graph(pieces, cfg, grid_spec=pts)
    assert graph.status[0] == "ok"
    assert graph.status[1].startswith("failed")


def test_graph_rd_tangency_through_origin():
    _, _, pieces = rd_pieces(0.5, 5, gap=0.25)
    cfg = LpConfig(lam=0.4, T_max=50.0, dt=0.02, eps=0.06, tol=1e-10)
    pts = np.array([[s] for s in (0.01, 0.02, 0.03, 0.04, 0.05)])
    graph = build_manifold_graph(pieces, cfg, grid_spec=pts)
    # rd at lam=0.5 has the invariant constants line: h identically zero
    assert np.max(np.abs(graph.values)) <= 1e-8
    assert graph.diagnostics["tangency_intercept"] <= 1e-4


def test_graph_rd2_lipschitz_and_tangency():
    _, _, pieces = rd_pieces(2.0, 6)
    cfg = LpConfig(lam=0.8, T_max=30.0, dt=0.01, eps=0.08, tol=1e-10)
    pts = np.array([[0.01, 0.0], [0.02, 0.01], [0.04, 0.02], [0.06, 0.03],
                    [0.0, 0.0]])
    graph = build_manifold_graph(pieces, cfg, grid_spec=pts)
    assert all(s == "ok" for s in graph.status)
    assert graph.diagnostics["lipschitz_low"] < 0.1
    assert abs(graph.diagnostics["tangency_intercept"]) <= 1e-3


def test_graph_mmt_decay_window():
    m, sp, pieces = mmt_mi_pieces()
    cfg = LpConfig(lam=0.8 * sp.lambda_plus, T_max=12.0 / sp.lambda_plus,
                   dt=0.005, eps=0.04, tol=1e-9)
    pts = np.array([[0.03, 0.0], [0.0, 0.03], [0.02, 0.02]])
    graph = build_manifold_graph(pieces, cfg, grid_spec=pts)
    assert all(s == "ok" for s in graph.status)
    g = sp.realized_gap
    for lam_fit in graph.lambda_fit:
        assert lam_fit >= sp.rest_max_re + 0.1 * g
        assert lam_fit <= sp.lambda_plus_max + 0.1 * g


# ------------------------------------------------------------------ budgets

def test_budget_example_point_two():
    b = contraction_budget(1.0, 0.1, 1.0, -1.0, 1.0, 0.0)
    assert b.L1 == pytest.approx(0.2, abs=1e-15)
    assert b.feasible_eps is not None and b.feasible_eps > 0


def test_budget_zero_cf_feasible():
    # Cf = 0 drives L1 to zero; a positive ball below the step bound remains
    b = contraction_budget(1.0, 0.0, 1.0, -1.0, 1.0, 0.0)
    assert b.L1 == 0.0
    step = min(1.0, 1.0) / (2 * 2 * 1.0 * b.M1)
    assert b.feasible_eps is not None
    assert 0 < b.feasible_eps <= step


def test_budget_infeasible():
    b = contraction_budget(1.0, 1.0, 1.0, -1.0, 1.0, 0.0)
    assert b.L1 == pytest.approx(2.0)
    assert b.feasible_eps is None


def test_budget_lambda_validation():
    with pytest.raises(ValueError, match="gap"):
        contraction_budget(1.0, 0.1, 1.0, -1.0, 1.0, 2.0)


def test_measured_contraction_below_budget_prediction():
    # sample C0 and Cf for saddle1 and compare the measured factor
    m, sp, pieces = saddle1_pieces()
    cfg = LpConfig(lam=0.0 + 0.5 * sp.lambda_plus, T_max=20.0, dt=0.01,
                   eps=0.05, tol=1e-11)
    res = lp_solve(pieces, cfg, np.array([0.05]))
    radius = float(np.max(np.linalg.norm(res.Y, axis=1))) * 1.5 + 1e-6
    rng = np.random.default_rng(0)
    cf = 0.0
    for _ in range(400):
        y1, y2 = rng.normal(size=2), rng.normal(size=2)
        y1 *= radius / np.linalg.norm(y1) * rng.uniform(0, 1)
        y2 *= radius / np.linalg.norm(y2) * rng.uniform(0, 1)
        df = np.linalg.norm(pieces.f_split(y1[None])[0]
                            - pieces.f_split(y2[None])[0])
        dv = np.linalg.norm(y1 - y2)
        if dv > 1e-12:
            cf = max(cf, df / dv)
    b = contraction_budget(1.0, cf, 1.0, sp.rest_max_re, sp.lambda_plus,
                           cfg.lam)
    measured = res.diagnostics["contraction_factor"]
    assert measured <= max(b.L1, 1e-12)


# --------------------------------------------------------------- invariance

def test_invariance_saddle1():
    _, _, pieces = saddle1_pieces()
    pts = np.array([[-0.08], [0.0], [0.05], [0.08]])
    graph = build_manifold_graph(pieces, CFG1, grid_spec=pts)
    rep = invariance_residual(graph, pieces, CFG1, 0.1)
    assert rep["max_residual"] <= 1e-6


def test_invariance_center_sample_zero():
    _, _, pieces = saddle1_pieces()
    graph = build_manifold_graph(pieces, CFG1,
                                 grid_spec=np.array([[0.0]]))
    rep = invariance_residual(graph, pieces, CFG1, 0.1)
    assert rep["max_residual"] <= 1e-12


def test_invariance_mmt_within_budget():
    m, sp, pieces = mmt_mi_pieces()
    cfg = LpConfig(lam=0.8 * sp.lambda_plus, T_max=12.0 / sp.lambda_plus,
                   dt=0.005, eps=0.05, tol=1e-9)
    pts = np.array([[0.03, 0.0], [0.02, 0.02]])
    graph = build_manifold_graph(pieces, cfg, grid_spec=pts)
    rep = invariance_residual(graph, pieces, cfg, 0.1)
    budget = np.nanmax(graph.error_budget)
    assert rep["skipped"] == 0
    assert rep["max_residual"] <= 10 * (cfg.tol + budget) + 1e-8


# -------------------------------------------------------------- variational

def test_variational_zero_base():
    _, _, pieces = saddle1_pieces()
    res = lp_solve(pieces, CFG1, np.zeros(1))
    _, Dq = lp_variational(res, pieces, CFG1)
    assert np.abs(Dq).max() == 0.0


def test_variational_saddle1_derivative():
    _, _, pieces = saddle1_pieces()
    x0 = 0.09
    res = lp_solve(pieces, CFG1, np.array([x0]))
    _, Dq = lp_variational(res, pieces, CFG1)
    assert Dq[0, 0] == pytest.approx(2.0 * x0 / 3.0, abs=1e-5)


def test_variational_matches_graph_fd():
    _, _, pieces = rd_pieces(2.0, 6)
    cfg = LpConfig(lam=0.8, T_max=30.0, dt=0.01, eps=0.1, tol=1e-11)
    base = np.array([0.05, 0.04])
    res = lp_solve(pieces, cfg, base)
    _, Dq = lp_variational(res, pieces, cfg)
    h_step = 1e-4
    for j in range(2):
        e = np.zeros(2)
        e[j] = h_step
        hp = lp_solve(pieces, cfg, base + e).h_value
        hm = lp_solve(pieces, cfg, base - e).h_value
        fd = (hp - hm) / (2 * h_step)
        denom = max(np.linalg.norm(fd), 1e-8)
        assert np.linalg.norm(Dq[:, j] - fd) / denom <= 1e-3


# ----------------------------------------------------------- quasilinearize

def test_quasilinearize_linear_model():
    A = np.diag([1.0, -1.0])
    m = custom_model("lin", lambda u: A @ u, lambda u: A, np.zeros(2))
    sp = eigen_split(A, 0.5)
    q = quasilinearize(m, sp, omega_plus=1.0, omega_minus=-1.0)
    rng = np.random.default_rng(1)
    for _ in range(5):
        y = rng.normal(size=2) * 0.3
        assert np.abs(q.pieces.remainder_at(y)).max() <= 1e-10


def test_quasilinearize_roundtrip_saddle1():
    m = saddle_toy("saddle1")
    sp = eigen_split(m.jacobian(m.equilibrium), 0.5)
    q = quasilinearize(m, sp, omega_plus=1.0, omega_minus=-1.0)
    u = np.array([0.05, 0.05])
    assert np.abs(q.invert_B(q.bmap(u)) - u).max() <= 1e-10
    assert q.db0_condition < 1e3


def test_quasilinearize_remainder_gradient_vanishes():
    m = saddle_toy("saddle1")
    sp = eigen_split(m.jacobian(m.equilibrium), 0.5)
    q = quasilinearize(m, sp)
    h = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        df = (q.pieces.remainder_at(e) - q.pieces.remainder_at(-e)) / (2 * h)
        assert np.abs(df).max() <= 1e-6


def test_quasilinearized_manifold_matches_direct():
    # unstable manifold computed in transformed coordinates, mapped back
    m = saddle_toy("saddle1")
    sp = eigen_split(m.jacobian(m.equilibrium), 0.5)
    q = quasilinearize(m, sp, omega_plus=1.0, omega_minus=-1.0)
    cfg = LpConfig(lam=0.9, T_max=18.0, dt=0.01, eps=0.2, tol=1e-10)
    res = lp_solve(q.pieces, cfg, np.array([0.08]))
    v_pt = q.pieces.B @ np.concatenate([res.base_point, res.h_value])
    u_pt = q.invert_B(v_pt)
    assert u_pt[1] == pytest.approx(u_pt[0] ** 2 / 3.0, abs=1e-6)


def test_quasilinearized_route_agrees_on_coupled_model():
    # both routes must produce the same invariant graph, not just the same
    # leading order: map the transformed-system manifold point back to the
    # original coordinates and compare against the direct graph there
    m, sp, pieces = _coupled_saddle()
    cfg = LpConfig(lam=0.9, T_max=20.0, dt=0.005, eps=0.15, tol=1e-11)
    q = quasilinearize(m, sp, omega_plus=1.0, omega_minus=-1.0)
    res_v = lp_solve(q.pieces, cfg, np.array([0.06]))
    v_pt = q.pieces.B @ np.concatenate([res_v.base_point, res_v.h_value])
    u_pt = q.invert_B(v_pt)
    direct = lp_solve(pieces, cfg, np.array([u_pt[0]]))
    budget = 10 * (res_v.diagnostics["error_budget"]
                   + direct.diagnostics["error_budget"])
    assert abs(u_pt[1] - direct.h_value[0]) <= budget


def test_random_quadratic_saddles_cross_checked():
    # seeded random 3-D systems u' = A u + Q(u, u): the LP graph must agree
    # with the shooting oracle and stay invariant under the flow
    rng = np.random.default_rng(77)
    for trial in range(5):
        A = np.diag([1.2, -0.8, -1.5])
        Q = 0.5 * rng.normal(size=(3, 3, 3))
        Q = 0.5 * (Q + np.transpose(Q, (0, 2, 1)))

        def F(u, Q=Q):
            return A @ u + np.einsum("ijk,j,k->i", Q, u, u)

        def jac(u, Q=Q):
            return A + 2.0 * np.einsum("ijk,k->ij", Q, u)

        m = custom_model(f"randq{trial}", F, jac, np.zeros(3))
        sp = eigen_split(A, 0.5)
        pieces = split_field(m, sp)
        cfg = LpConfig(lam=0.6, T_max=25.0, dt=0.01, eps=0.05, tol=1e-11)
        res = lp_solve(pieces, cfg, np.array([0.04]))
        sh = backward_shoot(m, sp, np.array([0.04]), T=20.0, tol=1e-11)
        diff = np.max(np.abs(res.h_value - sh.matched_value))
        budget = 10 * (res.diagnostics["error_budget"]
                       + sh.match_residual + 1e-8)
        assert diff <= budget, (trial, diff, budget)
        graph = build_manifold_graph(
            pieces, cfg, grid_spec=np.array([[0.0], [0.02], [0.04]]))
        rep = invariance_residual(graph, pieces, cfg, 0.1)
        assert rep["max_residual"] <= 10 * (cfg.tol + budget)


def test_quasilinearize_newton_failure_message():
    # 1-D model whose transform u -> u^2 - 1.25 u has no preimage below the
    # fold value; Newton must report stagnation rather than loop
    m = custom_model("fold", lambda u: -u + u * u,
                     lambda u: np.array([[-1.0 + 2.0 * u[0]]]), np.zeros(1))
    sp = eigen_split(m.jacobian(m.equilibrium), 0.5)
    q = quasilinearize(m, sp, omega_minus=-0.75)
    with pytest.raises(RuntimeError, match="[Nn]ewton"):
        q.invert_B(np.array([-1.0]))


def test_tangency_quadratic_coefficient_stable_across_eps():
    # slope of ||h||/||v|| vs ||v|| (the quadratic coefficient of the graph)
    # must be stable within 20% across eps, eps/2, eps/4, and the raw ratio
    # must vanish as eps -> 0
    _, _, pieces = saddle1_pieces()
    coeffs = []
    ratios = []
    for eps in (0.1, 0.05, 0.025):
        cfg = LpConfig(lam=0.9, T_max=20.0, dt=0.005, eps=eps, tol=1e-11)
        pts = np.linspace(0.2 * eps, eps, 5).reshape(-1, 1)
        graph = build_manifold_graph(pieces, cfg, grid_spec=pts)
        coeffs.append(graph.diagnostics["tangency_slope"])
        ratios.append(np.max(np.linalg.norm(graph.values, axis=1)
                             / np.linalg.norm(graph.base_points, axis=1)))
    for c in coeffs[1:]:
        assert abs(c - coeffs[0]) <= 0.2 * abs(coeffs[0])
    assert ratios[2] < ratios[1] < ratios[0]
    assert coeffs[0] == pytest.approx(1.0 / 3.0, rel=1e-3)


def test_two_admissible_gaps_same_graph():
    # different admissible splitting gaps must reproduce the same manifold
    m = saddle_toy("saddle1")
    hs = []
    for gap in (0.3, 0.7):
        sp = eigen_split(m.jacobian(m.equilibrium), gap)
        pieces = split_field(m, sp)
        cfg = LpConfig(lam=0.9, T_max=20.0, dt=0.005, eps=0.12, tol=1e-11)
        hs.append(lp_solve(pieces, cfg, np.array([0.1])).h_value[0])
    assert hs[0] == pytest.approx(hs[1], abs=1e-9)


# ----------------------------------------------- growth bound along LP orbit

def test_growth_bound_along_lp_orbit():
    m, sp, pieces = saddle1_pieces()
    res = lp_solve(pieces, CFG1, np.array([0.1]))
    tl = Timeline.from_orbit(m, res.orbit)
    samples = [(-2.0, 0.0), (-5.0, -1.0), (0.0, -3.0)]
    rep = growth_bound_check(tl, sp, samples, C0=1.0)
    assert rep["worst_ratio"] <= 1.05
