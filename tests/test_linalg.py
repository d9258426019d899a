import math

import numpy as np
import pytest
import scipy.linalg as sla

from lpmanifolds import oracles
from lpmanifolds.graded import NormLadder, OrbitGrid
from lpmanifolds.linalg import (
    AmbiguousSplitError,
    NoContractionError,
    _contract,
    dissipativity_check,
    eigen_split,
    hamiltonian_symmetry_check,
    integrate_rk4,
    lyapunov_form,
    picard_solve,
    rk4_affine,
    variational_flow,
)
from lpmanifolds.models import (custom_model, mmt_block, mmt_galerkin,
                                mmt_mode_set, MmtParams, saddle_toy)


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
        # the projectors of the split coordinates y = Binv (u - eq)
        d = sp.dim_plus
        P, R = sp.B[:, :d] @ sp.Binv[:d], sp.B[:, d:] @ sp.Binv[d:]
        assert np.abs(P + R - np.eye(n)).max() < 1e-12 * max(
            1.0, np.abs(P).max())
        assert np.linalg.norm(P @ P - P) < 1e-10
        assert np.linalg.norm(P @ R) < 1e-10
        nrm = max(np.linalg.norm(A), 1.0)
        assert np.linalg.norm(P @ A @ R) <= 1e-8 * nrm
        assert np.linalg.norm(R @ A @ P) <= 1e-8 * nrm
        # block bases are real and orthonormal
        Bp = sp.B[:, :d]
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


@pytest.mark.parametrize("kind", ["normal", "nonnormal", "complex_pair"])
def test_lyapunov_form_is_scipys_solution_bit_for_bit(kind):
    # one real Schur form of (A - omega I)^T serves the abscissa and the
    # Bartels-Stewart solve, whose L is solve_continuous_lyapunov's,
    # symmetrized, bit for bit
    rng = np.random.default_rng(list(map(ord, kind)))
    n = 6
    if kind == "normal":
        Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        A = Q @ np.diag(-rng.uniform(0.5, 3.0, size=n)) @ Q.T
    elif kind == "nonnormal":
        A = np.diag(-rng.uniform(0.5, 3.0, size=n)) + 5.0 * np.triu(
            rng.normal(size=(n, n)), 1)
    else:
        # the pairs -0.3 +/- 2i and -1 +/- 0.5i, and two real eigenvalues
        A = sla.block_diag([[-0.3, 2.0], [-2.0, -0.3]],
                           [[-1.0, 0.5], [-0.5, -1.0]], [[-2.0]], [[-0.7]])
        S = rng.normal(size=(n, n)) + 3.0 * np.eye(n)
        A = S @ A @ np.linalg.inv(S)
    om = 0.1
    L = sla.solve_continuous_lyapunov((A - om * np.eye(n)).T, -np.eye(n))
    assert np.array_equal(lyapunov_form(A, om).L, 0.5 * (L + L.T))
    # the refusal names the abscissa, the largest real part of sigma(A)
    top = np.linalg.eigvals(A).real.max()
    with pytest.raises(ValueError, match="spectral abscissa violated: "
                       r"omega=-2.5 <= max Re sigma\(A\)=") as err:
        lyapunov_form(A, -2.5)
    named = float(str(err.value).rsplit("=", 1)[1])
    assert named == pytest.approx(top, abs=1e-12)


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

def _rk4_step_loop(f, y0, t0, t1, dt):
    """Reference for integrate_rk4: ceil(|t1 - t0| / dt) equal RK4 steps."""
    n = max(1, math.ceil(abs(t1 - t0) / dt))
    h = (t1 - t0) / n
    y, t = np.array(y0, dtype=float), t0
    for _ in range(n):
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return y


@pytest.mark.parametrize("t0, t1", [(0.0, 1.3), (1.3, -0.4)],
                         ids=["forward", "backward"])
def test_integrate_rk4_matches_step_loop(t0, t1):
    # the same operations as the loop, so the same bits: the invariance
    # residuals of the golden manifold files come from integrate_rk4
    def f(t, y):
        return np.array([y[1] * t, -np.sin(y[0]) + y[1] ** 2])

    y0 = np.array([0.3, -0.2])
    got = integrate_rk4(f, y0, t0, t1, 0.07)
    ref = _rk4_step_loop(f, y0, t0, t1, 0.07)
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


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
@pytest.mark.parametrize(("d", "m", "r"), [(1, 2001, None), (2, 2001, None),
                                           (5, 2001, None), (2, 4001, None),
                                           (3, 501, 4)],
                         ids=["1", "2", "5", "2-4001", "3-rows"])
def test_rk4_affine_matches_stage_loop(d, m, r, h):
    # a slowly varying operator with decay in the direction of the steps,
    # as in both sweeps of the Lyapunov-Perron iteration; d = 2 on 4001
    # nodes is the size of a Picard solve in the benchmark.  With r, y0
    # holds r states as rows, each its own recurrence.
    rng = np.random.default_rng([d, h > 0])
    s = np.linspace(0.0, 1.0, m)[:, None, None]
    base = -np.sign(h) * np.eye(d) + 0.3 * rng.normal(size=(d, d))
    A = base + 0.2 * np.sin(3.0 * s) * rng.normal(size=(d, d))
    g = 0.1 * np.cos(5.0 * s[:, :, 0] + rng.normal(size=d))
    y0 = rng.normal(size=d if r is None else (r, d))
    got = rk4_affine(A, g, y0, h)
    if r is None:
        ref = _rk4_stage_loop(A, g, y0, h)
    else:
        ref = np.stack([_rk4_stage_loop(A, g, row, h) for row in y0], axis=1)
    assert got.shape == ((m, d) if r is None else (m, r, d))
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])


@pytest.mark.parametrize(("f", "y0", "t1", "expect"), [
    (lambda t, y: -1.3 * y, [1.0], 0.5, [math.exp(-1.3 * 0.5)]),
    (lambda t, y: -1.3 * y, [1.0], 1.5, [math.exp(-1.3 * 1.5)]),
    (lambda t, y: -1.3 * y, [1.0], -1.2, [math.exp(-1.3 * -1.2)]),
    (lambda t, y: ROTATION @ y, [1.0, 0.0], math.pi / 2, [0.0, -1.0]),
    (lambda t, y: t * y, [1.0], 1.0, [math.exp(0.5)]),
], ids=["exponential-0.5", "exponential-1.5", "exponential-backward",
        "rotation-quarter-turn", "time-dependent-diagonal"])
def test_integrate_rk4_accuracy(f, y0, t1, expect):
    y = integrate_rk4(f, np.array(y0), 0.0, t1, 1e-3)
    assert y == pytest.approx(np.array(expect), abs=1e-8)


@pytest.mark.parametrize("autonomous", [True, False],
                         ids=["autonomous", "nonautonomous"])
def test_integrate_rk4_composition(autonomous):
    if autonomous:
        rng = np.random.default_rng(2)
        A = rng.normal(size=(3, 3)) * 0.5
        y0, t_mid = rng.normal(size=3), 0.8

        def f(t, y):
            return A @ y
    else:
        y0, t_mid = np.array([1.0, -0.5]), 1.1

        def f(t, y):
            return np.array([[math.sin(t), 0.3], [0.0, -t]]) @ y
    direct = integrate_rk4(f, y0, 0.0, 2.0, 1e-3)
    mid = integrate_rk4(f, y0, 0.0, t_mid, 1e-3)
    comp = integrate_rk4(f, mid, t_mid, 2.0, 1e-3)
    assert np.linalg.norm(direct - comp) <= 1e-9


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


@pytest.mark.parametrize("dt", [math.inf, math.nan, 0.0, -1.0])
def test_integrate_rk4_refuses_bad_step(dt):
    # dt = inf once took a single RK4 step over the whole span: y' = -y on
    # [0, 5] returned 13.708 instead of e^-5
    with pytest.raises(ValueError,
                       match=f"dt must be a positive finite number, got {dt}"):
        integrate_rk4(lambda t, y: -y, np.array([1.0]), 0.0, 5.0, dt)


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
        A = model.jacobian(states)
        g = model.field_many(states) - (A @ states[:, :, None])[:, :, 0]
        states = rk4_affine(A, g, v0, times[1] - times[0])
    return states


def test_picard_first_sweep_evaluates_start_once(monkeypatch):
    model = saddle_toy("saddle1")
    v0 = np.array([0.1, 0.05])
    rows = {"field_many": 0, "jacobian": 0}
    for name in rows:
        def counted(S, name=name, inner=getattr(model, name)):
            rows[name] += len(S)
            return inner(S)
        monkeypatch.setattr(model, name, counted)
    orbit, diag = picard_solve(model, v0, 0.5, 1e-3, tol=1e-10)
    it, m = diag["iterations"], len(orbit.times)
    assert it >= 3
    assert rows == {"field_many": 1 + (it - 1) * m,
                    "jacobian": 1 + (it - 1) * m}
    ref = _picard_loop(model, v0, 0.5, 1e-3, it)
    assert np.abs(orbit.states - ref).max() <= 1e-15


def test_picard_no_contraction_error():
    # v' = v^2 from v0 = 1 blows up at t = 1; the iteration cannot contract
    model = custom_model("blow", lambda u: u * u,
                         lambda u: np.array([[2.0 * u[0]]]), np.zeros(1))
    with pytest.raises(RuntimeError, match="no contraction"):
        picard_solve(model, np.array([1.0]), 0.999, 1e-3)


def test_picard_stopping_above_tol_raises():
    # v' = -v with the Jacobian given as -1/2: each sweep is the Volterra
    # map of the kernel e^{-(t-s)/2}/2, whose increments on [0, 60] shrink
    # too slowly to reach 1e-12 in the 40 sweeps: the unconverged orbit is
    # refused
    model = custom_model("slow", lambda u: -u, lambda u: np.array([[-0.5]]),
                         np.zeros(1))
    with pytest.raises(NoContractionError, match="not reached in 40 sweeps"):
        picard_solve(model, np.array([1.0]), 60.0, 1e-2, tol=1e-12)


# ------------------------------------------------------- contraction loop

def _counted(f):
    """f with a count of its calls in .calls."""
    def g(x):
        g.calls += 1
        return f(x)
    g.calls = 0
    return g


def _change(new, old):
    """_contract's increment of scalar iterates."""
    return abs(new - old)


def test_contract_halving_map_converges():
    x, incs = _contract(lambda x: x / 2, 1.0, _change, 1e-6, 60)
    assert incs[-1] <= 1e-6 < incs[-2]
    assert x == incs[-1]
    assert all(b == a / 2 for a, b in zip(incs, incs[1:]))


def test_contract_doubling_map_raises_after_three_growing_sweeps():
    sweep = _counted(lambda x: 2 * x)
    with pytest.raises(NoContractionError, match="^no contraction"):
        _contract(sweep, 1.0, _change, 1e-6, 60)
    # increments 1, 2, 4, 8: the fourth sweep is the third that grew
    assert sweep.calls == 4


def test_contract_slow_map_raises_at_max_iter():
    sweep = _counted(lambda x: 0.99 * x)
    with pytest.raises(NoContractionError,
                       match="fixed point not reached in 3 sweeps"):
        _contract(sweep, 1.0, _change, 1e-12, 3)
    assert sweep.calls == 3


@pytest.mark.parametrize("max_iter, tol, message", [
    (0, 1e-6, "max_iter must be at least 1"),
    (-1, 1e-6, "max_iter must be at least 1"),
    (60, -1.0, "tol must be non-negative"),
    (60, math.nan, "tol must be non-negative"),
    (60, math.inf, "tol must be finite, got inf"),
], ids=["0", "-1", "tol-1", "tol-nan", "tol-inf"])
def test_contract_refuses_max_iter_below_one(max_iter, tol, message):
    sweep = _counted(lambda x: x / 2)
    with pytest.raises(ValueError, match=message):
        _contract(sweep, 1.0, _change, tol, max_iter)
    assert sweep.calls == 0


def test_contract_allows_zero_tol():
    # x / 2 reaches 0 in floating point, so tol = 0 is reachable
    x, incs = _contract(lambda x: x / 2, 1.0, _change, 0.0, 2000)
    assert x == 0.0 and incs[-1] == 0.0


# ----------------------------------------------------------- variational flow

def test_variational_scalar_linear():
    model = custom_model("lin1", lambda u: u, lambda u: np.array([[1.0]]),
                         np.zeros(1))
    times = np.linspace(0.0, 1.0, 201)
    states = np.exp(times).reshape(-1, 1) * 0.001
    U = variational_flow(model, OrbitGrid(times, states))
    assert U[-1][0, 0] == pytest.approx(math.e, rel=1e-7)


def test_variational_quadratic_scalar():
    # u' = u^2, u(t) = u0/(1-u0 t): d u(1)/d u0 at u0=0.5 is 1/(1-0.5)^2 = 4
    model = custom_model("sq", lambda u: u * u,
                         lambda u: np.array([[2.0 * u[0]]]), np.zeros(1))
    times = np.linspace(0.0, 1.0, 2001)
    states = (0.5 / (1.0 - 0.5 * times)).reshape(-1, 1)
    U = variational_flow(model, OrbitGrid(times, states))
    assert U[-1][0, 0] == pytest.approx(4.0, rel=1e-6)


def test_variational_rejects_non_trajectory():
    model = custom_model("lin1", lambda u: u, lambda u: np.array([[1.0]]),
                         np.zeros(1))
    times = np.linspace(0.0, 1.0, 101)
    states = np.cos(times).reshape(-1, 1)
    with pytest.raises(ValueError, match="not a trajectory"):
        variational_flow(model, OrbitGrid(times, states))


def test_variational_accepts_a_true_mmt33_orbit():
    # the high modes make the centred difference's own error, about
    # |u^(3)| dt^2 / 6, far larger than a limit scaled by max|F| alone; a
    # DOP853 orbit of the 33-mode truncation is a trajectory, and U(T) e_0
    # is the flow map's derivative along the first coordinate
    model = mmt_galerkin(MmtParams(alpha=1.0, beta=0.0, sigma=-1, a=1.2,
                                   xi0=0, mode_set=mmt_mode_set(0, 16)))
    u0 = model.equilibrium.copy()
    u0[0] += 0.05
    times = np.linspace(0.0, 0.05, 501)
    orbit = OrbitGrid(times, oracles.reference_flow(
        model.vector_field, u0, 0.0, 0.05, t_eval=times))
    U = variational_flow(model, orbit)
    h = 1e-6
    e = np.zeros(model.dimension)
    e[0] = h
    fd = (oracles.reference_flow(model.vector_field, u0 + e, 0.0, 0.05)
          - oracles.reference_flow(model.vector_field, u0 - e, 0.0, 0.05)
          ) / (2 * h)
    assert np.abs(U[-1][:, 0] - fd).max() <= 1e-3


def test_variational_rejects_uneven_or_short_orbits():
    model = custom_model("lin1", lambda u: u, lambda u: np.array([[1.0]]),
                         np.zeros(1))
    times = np.linspace(0.0, 1.0, 201)
    times[100] += 1e-6
    states = (0.001 * np.exp(times)).reshape(-1, 1)
    with pytest.raises(ValueError, match="not uniformly spaced"):
        variational_flow(model, OrbitGrid(times, states))
    with pytest.raises(ValueError, match="too short"):
        variational_flow(model, OrbitGrid(times[:2], states[:2]))


def test_variational_takes_one_batched_jacobian(monkeypatch):
    model = saddle_toy("saddle1")
    times = np.linspace(0.0, 1.0, 201)
    orbit = OrbitGrid(times, oracles.reference_flow(
        model.vector_field, np.array([0.1, 0.0]), 0.0, 1.0, t_eval=times))
    shapes = []

    def jacobian(S, inner=model.jacobian):
        shapes.append(S.shape)
        return inner(S)

    monkeypatch.setattr(model, "jacobian", jacobian)
    U = variational_flow(model, orbit)
    assert shapes == [(201, 2)]
    assert U.shape == (201, 2, 2)
    assert np.array_equal(U[0], np.eye(2))


def test_variational_backward_matches_flow_fd():
    # saddle toy: U over [-1, 0] against central differences of the flow map
    model = saddle_toy("saddle1")
    u0 = np.array([0.1, 0.01 / 3.0])
    times = np.linspace(-1.0, 0.0, 501)
    back_states = oracles.reference_flow(model.vector_field, u0, 0.0, -1.0,
                                         t_eval=times[::-1].copy())
    orbit = OrbitGrid(times, back_states[::-1])
    U = variational_flow(model, orbit)
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
