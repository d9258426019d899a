import math

import numpy as np
import pytest

from lpmanifolds import oracles
from lpmanifolds.graded import NormLadder, OrbitGrid
from lpmanifolds.linalg import (
    AmbiguousSplitError,
    NoContractionError,
    Timeline,
    _contract,
    dissipativity_check,
    eigen_split,
    evolve,
    growth_bound_check,
    hamiltonian_symmetry_check,
    integrate_rk4,
    lyapunov_form,
    metric_variation_bound,
    picard_solve,
    rk4_affine,
    transition_matrix,
    variational_flow,
)
from lpmanifolds.models import custom_model, mmt_block, MmtParams, saddle_toy


# ---------------------------------------------------------------- eigen_split

def test_eigen_split_jl_2x2():
    # JL for J = [[0,1],[-1,0]], L = diag(1,-1): eigenvalues +-1
    A = np.array([[0.0, -1.0], [-1.0, 0.0]])
    sp = eigen_split(A, 0.5)
    assert sp.dim_plus == 1 and sp.dim_minus == 1 and sp.dim_center == 0
    assert sorted(z.real for z in sp.eigenvalues) == pytest.approx([-1.0, 1.0])


def test_eigen_split_diag():
    sp = eigen_split(np.diag([2.0, -3.0]), 0.5)
    assert sp.dim_plus == 1 and sp.dim_minus == 1
    assert sp.lambda_plus == pytest.approx(2.0)
    assert sp.rest_max_re == pytest.approx(-3.0)
    assert sp.omega_plus == pytest.approx(0.5 * (0.5 + 2.0))
    assert sp.omega_minus == pytest.approx(0.5 * (-3.0 + 0.5))


def test_eigen_split_mmt_center_block():
    p = MmtParams(alpha=1.0, beta=1.0, sigma=1, a=1.0, xi0=2,
                  mode_set=(1, 2, 3))
    blk = mmt_block(p, 1)
    sp = eigen_split(blk.block, 0.5)
    assert sp.dim_center == 4
    assert np.max(np.abs(sp.eigenvalues.real)) < 1e-10


def test_eigen_split_ambiguity_error():
    with pytest.raises(AmbiguousSplitError, match="gap"):
        eigen_split(np.diag([0.52, -1.0]), 0.5)


def test_projection_invariants_random():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        A = rng.normal(size=(n, n))
        re = np.linalg.eigvals(A).real
        if np.min(np.abs(np.abs(re) - 0.3)) < 0.035:
            continue
        try:
            sp = eigen_split(A, 0.3)
        except AmbiguousSplitError:
            continue
        P, R = sp.projection.projector_plus, sp.projection.projector_rest
        assert np.abs(P + R - np.eye(n)).max() < 1e-12 * max(
            1.0, np.abs(P).max())
        assert np.linalg.norm(P @ P - P) < 1e-10
        assert np.linalg.norm(P @ R) < 1e-10
        nrm = max(np.linalg.norm(A), 1.0)
        assert np.linalg.norm(P @ A @ R) <= 1e-8 * nrm
        assert np.linalg.norm(R @ A @ P) <= 1e-8 * nrm
        # block bases are real and orthonormal
        Bp = sp.projection.basis_plus
        if Bp.shape[1]:
            assert np.linalg.norm(Bp.T @ Bp - np.eye(Bp.shape[1])) < 1e-12


# ------------------------------------------------- hamiltonian symmetry check

def test_symmetry_rotation():
    rep = hamiltonian_symmetry_check(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert rep["worst"] == pytest.approx(0.0, abs=1e-14)


def test_symmetry_saddle():
    rep = hamiltonian_symmetry_check(np.diag([1.0, -1.0]))
    assert rep["worst"] == pytest.approx(0.0, abs=1e-14)


def test_symmetry_failure_flagged():
    rep = hamiltonian_symmetry_check(np.diag([1.0, -2.0]))
    assert rep["worst"] == pytest.approx(1.0)
    assert not rep["symmetric"]


# ------------------------------------------------------------- lyapunov forms

def test_lyapunov_diagonal():
    form = lyapunov_form(np.diag([-1.0, -2.0]), 0.0)
    assert form.L == pytest.approx(np.diag([0.5, 0.25]), abs=1e-12)


def test_lyapunov_scalar_shifted():
    form = lyapunov_form(np.zeros((1, 1)), 1.0)
    assert form.L[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_lyapunov_rotation_multiple_of_identity():
    form = lyapunov_form(np.array([[0.0, 1.0], [-1.0, 0.0]]), 1.0)
    assert form.L == pytest.approx(0.5 * np.eye(2), abs=1e-12)


def test_lyapunov_abscissa_error():
    with pytest.raises(ValueError, match="spectral abscissa violated"):
        lyapunov_form(np.diag([-1.0, 0.5]), 0.2)


def test_dissipativity_diagonal():
    form = lyapunov_form(np.diag([-1.0, -2.0]), 0.0)
    margin = dissipativity_check(
        type(form)(L=np.eye(2), omega=0.0), np.diag([-1.0, -2.0]), 0.0)
    assert margin == pytest.approx(-1.0, abs=1e-12)


def test_dissipativity_skew_zero():
    from lpmanifolds.linalg import LyapunovForm
    margin = dissipativity_check(LyapunovForm(np.eye(2), 0.0),
                                 np.array([[0.0, 1.0], [-1.0, 0.0]]), 0.0)
    assert margin == pytest.approx(0.0, abs=1e-12)


def test_dissipativity_of_lyapunov_form_random():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = 5
        R = rng.normal(size=(n, n))
        A = R - (np.linalg.eigvals(R).real.max() + rng.uniform(0.3, 1.0)) \
            * np.eye(n)
        om = np.linalg.eigvals(A).real.max() + rng.uniform(0.1, 1.0)
        form = lyapunov_form(A, om)
        assert dissipativity_check(form, A, om) <= 1e-10
        res = np.linalg.norm(A.T @ form.L + form.L @ A - 2 * om * form.L
                             + np.eye(n))
        assert res <= 1e-10


def test_lyapunov_random_stable_dimension_100():
    # beyond the old Kronecker solve's n <= 64 limit
    rng = np.random.default_rng(5)
    n = 100
    R = rng.normal(size=(n, n)) / math.sqrt(n)
    A = R - (np.linalg.eigvals(R).real.max() + 0.5) * np.eye(n)
    om = np.linalg.eigvals(A).real.max() + 0.2
    form = lyapunov_form(A, om)
    res = np.linalg.norm(A.T @ form.L + form.L @ A - 2 * om * form.L
                         + np.eye(n))
    assert res <= 1e-10
    assert dissipativity_check(form, A, om) <= 0.0


# ------------------------------------------------------------------ evolution

def test_integrate_rk4_record_times_closer_than_half_step():
    # record times 0.02 apart with h = 0.1 still advance the state
    times, states = integrate_rk4(lambda t, y: y, [1.0], 0.0, 1.0, 0.1,
                                  record_times=[0, 0.02, 0.04, 0.5, 1])
    assert np.all(np.abs(states[:, 0] - np.exp(times)) <= 1e-6 * np.exp(times))


@pytest.mark.parametrize("t0, t1", [(0.0, 1.3), (1.3, -0.4)],
                         ids=["forward", "backward"])
def test_integrate_rk4_final_state_is_record_at_t1(t0, t1):
    def f(t, y):
        return np.array([y[1] * t, -np.sin(y[0]) + y[1] ** 2])

    y0 = np.array([0.3, -0.2])
    final = integrate_rk4(f, y0, t0, t1, 0.07)
    times, states = integrate_rk4(f, y0, t0, t1, 0.07, record_times=[t1])
    assert times.tolist() == [t1]
    assert np.array_equal(final, states[-1])
    assert np.array_equal(np.signbit(final), np.signbit(states[-1]))


def test_interpolation_matches_np_interp():
    rng = np.random.default_rng(4)
    times = np.cumsum(rng.uniform(0.1, 1.0, size=40)) - 3.0
    states = rng.normal(size=(40, 3))
    mats = rng.normal(size=(40, 3, 3))
    orbit = OrbitGrid(times, states)
    tl_mats = Timeline.from_matrices(times, mats)
    # operator_at of an orbit timeline is the Jacobian at the interpolated
    # state; with DF(u) = diag(u) its diagonal is that state
    diag = custom_model("diag", lambda u: 0.5 * u * u, np.diag, np.zeros(3))
    tl_orbit = Timeline.from_orbit(diag, orbit)

    def ref(values, t):
        flat = values.reshape(len(times), -1)
        return np.array([np.interp(t, times, flat[:, k])
                         for k in range(flat.shape[1])]).reshape(
                             values.shape[1:])

    samples = np.concatenate([rng.uniform(times[0], times[-1], size=200),
                              times, [times[0] - 1e-13, times[-1] + 1e-13]])
    for t in samples:
        for got, values in ((tl_mats.operator_at(t), mats),
                            (np.diag(tl_orbit.operator_at(t)), states)):
            expect = ref(values, t)
            assert got.shape == expect.shape
            assert np.abs(got - expect).max() <= 1e-15 * np.abs(values).max()
    for j, t in enumerate(times):
        assert np.array_equal(tl_mats.operator_at(t), mats[j])
    assert np.array_equal(tl_mats.operator_at(times[0] - 1e-10), mats[0])
    with pytest.raises(ValueError, match="hull"):
        tl_mats.operator_at(times[0] - 1e-6)


def _rk4_stage_loop(A, g, y0, h):
    """Reference for rk4_affine: the node-by-node RK4 stages with A and g
    averaged at the midpoint of each step."""
    y = np.empty(g.shape)
    y[0] = y0
    for j in range(len(g) - 1):
        Am = 0.5 * (A[j] + A[j + 1])
        gm = 0.5 * (g[j] + g[j + 1])
        k1 = A[j] @ y[j] + g[j]
        k2 = Am @ (y[j] + 0.5 * h * k1) + gm
        k3 = Am @ (y[j] + 0.5 * h * k2) + gm
        k4 = A[j + 1] @ (y[j] + h * k3) + g[j + 1]
        y[j + 1] = y[j] + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


@pytest.mark.parametrize("h", [0.01, -0.01])
@pytest.mark.parametrize(("d", "m"), [(1, 2001), (2, 2001), (5, 2001),
                                      (2, 4001)],
                         ids=["1", "2", "5", "2-4001"])
def test_rk4_affine_matches_stage_loop(d, m, h):
    # a slowly varying operator with decay in the direction of the steps,
    # as in both sweeps of the Lyapunov-Perron iteration; d = 2 on 4001
    # nodes is the size of a Picard solve in the benchmark
    rng = np.random.default_rng([d, h > 0])
    s = np.linspace(0.0, 1.0, m)[:, None, None]
    base = -np.sign(h) * np.eye(d) + 0.3 * rng.normal(size=(d, d))
    A = base + 0.2 * np.sin(3.0 * s) * rng.normal(size=(d, d))
    g = 0.1 * np.cos(5.0 * s[:, :, 0] + rng.normal(size=d))
    y0 = rng.normal(size=d)
    got = rk4_affine(A, g, y0, h)
    ref = _rk4_stage_loop(A, g, y0, h)
    assert got.shape == (m, d)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_evolve_scalar_exponential():
    lam = -1.3
    tl = Timeline.autonomous(np.array([[lam]]))
    for t in (0.5, 1.5, -1.2):
        v = evolve(tl, np.array([1.0]), 0.0, t, 1e-3)
        assert v[0] == pytest.approx(math.exp(lam * t), abs=1e-8)


def test_evolve_rotation_quarter_turn():
    tl = Timeline.autonomous(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    v = evolve(tl, np.array([1.0, 0.0]), 0.0, math.pi / 2, 1e-3)
    assert v == pytest.approx(np.array([0.0, -1.0]), abs=1e-8)


def test_evolve_time_dependent_diagonal():
    times = np.linspace(0.0, 1.0, 3)
    mats = np.array([[[t]] for t in times])
    tl = Timeline.from_matrices(times, mats)
    v = evolve(tl, np.array([1.0]), 0.0, 1.0, 1e-3)
    assert v[0] == pytest.approx(math.exp(0.5), abs=1e-8)


def test_evolve_outside_hull_errors():
    tl = Timeline.from_matrices([0.0, 1.0], np.zeros((2, 1, 1)))
    with pytest.raises(ValueError, match="hull"):
        evolve(tl, np.array([1.0]), 0.0, 2.0, 1e-2)


def test_evolve_composition_property():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(3, 3)) * 0.5
    tl = Timeline.autonomous(A)
    v0 = rng.normal(size=3)
    direct = evolve(tl, v0, 0.0, 2.0, 1e-3)
    mid = evolve(tl, v0, 0.0, 0.8, 1e-3)
    comp = evolve(tl, mid, 0.8, 2.0, 1e-3)
    assert np.linalg.norm(direct - comp) <= 1e-9


def test_evolve_composition_nonautonomous():
    times = np.linspace(0.0, 2.0, 5)
    mats = np.array([[[math.sin(t), 0.3], [0.0, -t]]
                     for t in times])
    tl = Timeline.from_matrices(times, mats)
    v0 = np.array([1.0, -0.5])
    direct = evolve(tl, v0, 0.0, 2.0, 1e-3)
    mid = evolve(tl, v0, 0.0, 1.1, 1e-3)
    comp = evolve(tl, mid, 1.1, 2.0, 1e-3)
    assert np.linalg.norm(direct - comp) <= 1e-9


def test_growth_bound_autonomous_diag():
    A = np.diag([1.0, -1.0])
    sp = eigen_split(A, 0.5)
    tl = Timeline.autonomous(A)
    rep = growth_bound_check(tl, sp, [(2.0, 0.0)], C0=1.0)
    rest = [r for r in rep["samples"] if r["block"] == "rest"][0]
    assert rest["ratio"] == pytest.approx(1.0, rel=1e-6)
    rep_b = growth_bound_check(tl, sp, [(-2.0, 0.0)], C0=1.0)
    plus = [r for r in rep_b["samples"] if r["block"] == "+"][0]
    assert plus["ratio"] == pytest.approx(1.0, rel=1e-6)


def test_growth_bound_rotation_block():
    A = np.zeros((4, 4))
    A[:2, :2] = np.diag([1.0, 1.0])
    A[2:, 2:] = np.array([[0.0, 2.0], [-2.0, 0.0]])
    sp = eigen_split(A, 0.5)
    tl = Timeline.autonomous(A)
    rep = growth_bound_check(tl, sp, [(1.0, 0.0), (3.0, 0.0)], C0=1.0)
    for r in rep["samples"]:
        if r["block"] == "rest":
            assert r["ratio"] <= 1.0 + 1e-9


# ------------------------------------------------------------- metric bounds

def test_metric_variation_constant_path():
    rep = metric_variation_bound([np.eye(2), np.eye(2)])
    assert rep["direct"] == pytest.approx(1.0)
    assert rep["bound"] == pytest.approx(1.0)


def test_metric_variation_exponential_path():
    rep = metric_variation_bound([np.eye(2), math.e * np.eye(2)])
    assert rep["direct"] == pytest.approx(math.sqrt(math.e), rel=1e-12)
    assert rep["bound"] == pytest.approx(
        math.exp(0.5 * math.e * (math.e - 1.0)), rel=1e-12)
    assert rep["direct"] <= rep["bound"]


def test_metric_variation_interchanged_eigenbasis():
    L0 = np.diag([1.0, 2.0])
    L1 = np.diag([2.0, 1.0])
    rep = metric_variation_bound([L0, L1])
    # brute force over the two-node sequences: best single step ratio
    brute = 0.0
    rng = np.random.default_rng(0)
    for _ in range(20000):
        v = rng.normal(size=2)
        brute = max(brute, math.sqrt((v @ L1 @ v) / (v @ L0 @ v)))
    assert rep["direct"] == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert brute <= rep["direct"] * (1 + 1e-6)
    assert rep["direct"] <= rep["bound"] * (1 + 1e-6)


def test_metric_variation_rejects_indefinite():
    with pytest.raises(ValueError, match="positive"):
        metric_variation_bound([np.eye(2), np.diag([1.0, -0.5])])


# --------------------------------------------------------------------- picard

def _linear_decay_model():
    return custom_model("lin", lambda u: -u,
                        lambda u: np.array([[-1.0]]), np.zeros(1))


def test_picard_linear_decay():
    orbit, diag = picard_solve(_linear_decay_model(), np.array([1.0]), 1.0,
                               1e-3, tol=1e-12)
    assert orbit.states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_picard_affine():
    model = custom_model("affine", lambda u: -u + 1.0,
                         lambda u: np.array([[-1.0]]), np.ones(1))
    orbit, diag = picard_solve(model, np.array([0.0]), 1.0, 1e-3, tol=1e-12)
    exact = 1.0 - np.exp(-orbit.times)
    assert np.max(np.abs(orbit.states[:, 0] - exact)) < 1e-9


def test_picard_saddle_matches_rk4():
    model = saddle_toy("saddle1")
    v0 = np.array([0.1, 0.0])
    orbit, diag = picard_solve(model, v0, 0.5, 1e-3, tol=1e-10)
    ref = oracles.reference_flow(model.vector_field, v0, 0.0, 0.5)
    assert np.linalg.norm(orbit.states[-1] - ref) <= 1e-6
    assert diag["contraction_factor"] < 1.0


def test_picard_solve_runs_no_oracle(monkeypatch):
    # the oracle stays outside the solver: its callers compare against it
    def fails(*args, **kwargs):
        raise AssertionError("picard_solve called reference_flow")

    monkeypatch.setattr(oracles, "reference_flow", fails)
    orbit, diag = picard_solve(saddle_toy("saddle1"), np.array([0.1, 0.0]),
                               0.5, 1e-3, tol=1e-10)
    assert set(diag) == {"iterations", "contraction_factor",
                         "final_increment"}
    assert diag["final_increment"] <= 1e-10


@pytest.mark.parametrize("T, dt", [(0.5, 0.0), (0.5, -1e-3), (0.5, math.nan),
                                   (0.5, math.inf), (0.0, 1e-3),
                                   (math.nan, 1e-3)])
def test_picard_refuses_bad_interval(T, dt):
    with pytest.raises(ValueError, match="must be a positive finite number"):
        picard_solve(saddle_toy("saddle1"), np.array([0.1, 0.0]), T, dt)


def _picard_loop(model, v0, T, dt, iterations):
    """Reference for picard_solve's sweeps, the first one evaluated on the
    tiled start state."""
    m = max(2, int(round(T / dt)) + 1)
    times = np.linspace(0.0, T, m)
    states = np.tile(v0, (m, 1))
    for _ in range(iterations):
        A = model.jacobian_many(states)
        g = model.field_many(states) - (A @ states[:, :, None])[:, :, 0]
        states = rk4_affine(A, g, v0, times[1] - times[0])
    return states


def test_picard_first_sweep_evaluates_start_once(monkeypatch):
    model = saddle_toy("saddle1")
    v0 = np.array([0.1, 0.05])
    rows = {"field_many": 0, "jacobian_many": 0}
    for name in rows:
        def counted(S, name=name, inner=getattr(model, name)):
            rows[name] += len(S)
            return inner(S)
        monkeypatch.setattr(model, name, counted)
    orbit, diag = picard_solve(model, v0, 0.5, 1e-3, tol=1e-10)
    it, m = diag["iterations"], len(orbit.times)
    assert it >= 3
    assert rows == {"field_many": 1 + (it - 1) * m,
                    "jacobian_many": 1 + (it - 1) * m}
    ref = _picard_loop(model, v0, 0.5, 1e-3, it)
    assert np.abs(orbit.states - ref).max() <= 1e-15


def test_picard_no_contraction_error():
    # v' = v^2 from v0 = 1 blows up at t = 1; the iteration cannot contract
    model = custom_model("blow", lambda u: u * u,
                         lambda u: np.array([[2.0 * u[0]]]), np.zeros(1))
    with pytest.raises(RuntimeError, match="no contraction"):
        picard_solve(model, np.array([1.0]), 0.999, 1e-3, max_iter=40)


def test_picard_stopping_above_tol_raises():
    # two sweeps cannot reach 1e-30: the unconverged orbit is refused
    with pytest.raises(NoContractionError, match="not reached in 2 sweeps"):
        picard_solve(saddle_toy("saddle1"), np.array([0.1, 0.05]), 0.5, 1e-3,
                     max_iter=2, tol=1e-30)


# ------------------------------------------------------- contraction loop

def _counted(f):
    """f with a count of its calls in .calls."""
    def g(x):
        g.calls += 1
        return f(x)
    g.calls = 0
    return g


def test_contract_halving_map_converges():
    x, incs = _contract(lambda x: x / 2, 1.0, abs, 1e-6, 60)
    assert incs[-1] <= 1e-6 < incs[-2]
    assert x == incs[-1]
    assert all(b == a / 2 for a, b in zip(incs, incs[1:]))


def test_contract_doubling_map_raises_after_three_growing_sweeps():
    sweep = _counted(lambda x: 2 * x)
    with pytest.raises(NoContractionError, match="^no contraction"):
        _contract(sweep, 1.0, abs, 1e-6, 60)
    # increments 1, 2, 4, 8: the fourth sweep is the third that grew
    assert sweep.calls == 4


def test_contract_slow_map_raises_at_max_iter():
    sweep = _counted(lambda x: 0.99 * x)
    with pytest.raises(NoContractionError,
                       match="fixed point not reached in 3 sweeps"):
        _contract(sweep, 1.0, abs, 1e-12, 3)
    assert sweep.calls == 3


@pytest.mark.parametrize("max_iter, tol, message", [
    (0, 1e-6, "max_iter must be at least 1"),
    (-1, 1e-6, "max_iter must be at least 1"),
    (60, -1.0, "tol must be non-negative"),
    (60, math.nan, "tol must be non-negative"),
], ids=["0", "-1", "tol-1", "tol-nan"])
def test_contract_refuses_max_iter_below_one(max_iter, tol, message):
    sweep = _counted(lambda x: x / 2)
    with pytest.raises(ValueError, match=message):
        _contract(sweep, 1.0, abs, tol, max_iter)
    assert sweep.calls == 0


def test_contract_allows_zero_tol():
    # x / 2 reaches 0 in floating point, so tol = 0 is reachable
    x, incs = _contract(lambda x: x / 2, 1.0, abs, 0.0, 2000)
    assert x == 0.0 and incs[-1] == 0.0


# ----------------------------------------------------------- variational flow

def test_variational_scalar_linear():
    model = custom_model("lin1", lambda u: u, lambda u: np.array([[1.0]]),
                         np.zeros(1))
    times = np.linspace(0.0, 1.0, 201)
    states = np.exp(times).reshape(-1, 1) * 0.001
    U = variational_flow(model, OrbitGrid(times, states), 1e-3)
    assert U[-1][0, 0] == pytest.approx(math.e, rel=1e-7)


def test_variational_quadratic_scalar():
    # u' = u^2, u(t) = u0/(1-u0 t): d u(1)/d u0 at u0=0.5 is 1/(1-0.5)^2 = 4
    model = custom_model("sq", lambda u: u * u,
                         lambda u: np.array([[2.0 * u[0]]]), np.zeros(1))
    times = np.linspace(0.0, 1.0, 2001)
    states = (0.5 / (1.0 - 0.5 * times)).reshape(-1, 1)
    U = variational_flow(model, OrbitGrid(times, states), 5e-4)
    assert U[-1][0, 0] == pytest.approx(4.0, rel=1e-6)


def test_variational_rejects_non_trajectory():
    model = custom_model("lin1", lambda u: u, lambda u: np.array([[1.0]]),
                         np.zeros(1))
    times = np.linspace(0.0, 1.0, 101)
    states = np.cos(times).reshape(-1, 1)
    with pytest.raises(ValueError, match="not a trajectory"):
        variational_flow(model, OrbitGrid(times, states), 1e-3)


def test_variational_backward_matches_flow_fd():
    # saddle toy: U over [-1, 0] against central differences of the flow map
    model = saddle_toy("saddle1")
    u0 = np.array([0.1, 0.01 / 3.0])
    from lpmanifolds.linalg import integrate_rk4
    times = np.linspace(-1.0, 0.0, 501)
    _, back_states = integrate_rk4(lambda t, y: model.vector_field(y), u0,
                                   0.0, -1.0, 1e-3,
                                   record_times=times[::-1].copy())
    orbit = OrbitGrid(times, back_states[::-1])
    U = variational_flow(model, orbit, 1e-3)
    # U(t_first) relative to identity at t_last: D flow_{-1} = U[0] @ U[-1]^{-1}
    D = U[0] @ np.linalg.inv(U[-1])
    h = 1e-5
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        up = integrate_rk4(lambda t, y: model.vector_field(y), u0 + e, 0.0,
                           -1.0, 1e-3)
        um = integrate_rk4(lambda t, y: model.vector_field(y), u0 - e, 0.0,
                           -1.0, 1e-3)
        fd = (up - um) / (2 * h)
        assert np.linalg.norm(D[:, j] - fd) <= 1e-5 * max(
            1.0, np.linalg.norm(fd))
