import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg as sla

import lpmanifolds
from lpmanifolds import cli, linalg, lp
from lpmanifolds.graded import NormLadder, OrbitGrid, graded_norm
from lpmanifolds.linalg import (
    dissipativity_check,
    eigen_split,
    integrate_rk4,
    linear_scan,
    lyapunov_form,
    scan_plan,
)
from lpmanifolds.lp import (
    LpConfig,
    NoContractionError,
    build_manifold_graph,
    contraction_budget,
    decay_rate_fit,
    invariance_residual,
    lp_apply,
    lp_solve,
    lp_variational,
    quasilinearize,
    reversed_model,
    split_field,
)
from lpmanifolds.models import (
    MmtParams,
    ModelSystem,
    custom_model,
    mmt_galerkin,
    mmt_mode_set,
    reaction_diffusion,
    saddle_toy,
)
from lpmanifolds.oracles import backward_shoot
from lpmanifolds.verify import ALL_MODELS, setup_mmt


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


def test_split_field_scales_the_df0_check_with_a0():
    # the 63-mode beta = 1 MMT has ||A0||_F = 3.5e3, and its right
    # splitting has a roundoff ||Df(0)|| of 6.7e-6 in split coordinates
    # (above an absolute 1e-6)
    p = MmtParams(alpha=1.0, beta=1.0, sigma=-1, a=0.8, xi0=1,
                  mode_set=mmt_mode_set(1, 31))
    m = mmt_galerkin(p)
    A0 = m.jacobian(m.equilibrium)
    pieces = split_field(m, eigen_split(A0, cli.default_gap(A0)))
    assert pieces.d_plus == 60


def test_split_field_refuses_a_wrong_jacobian():
    # the splitting block-diagonalizes the Jacobian it was built from, but
    # the field's derivative at 0 is diag(1, -1), not diag(1, -2)
    true = saddle_toy("saddle1")
    wrong = lambda u: np.diag([1.0, -2.0])  # noqa: E731
    m = custom_model("wrong_jac", true.vector_field, wrong, np.zeros(2))
    sp = eigen_split(m.jacobian(m.equilibrium), 0.5)
    with pytest.raises(ValueError, match="inconsistent with Jacobian"):
        split_field(m, sp)


def test_rest_growth_constant_is_one_without_a_complement():
    model = custom_model("grow", lambda u: u, lambda u: np.eye(2),
                         np.zeros(2))
    pieces = split_field(model, eigen_split(np.eye(2), 0.5))
    assert pieces.d_rest == 0
    assert pieces.rest_growth_constant(5.0) == 1.0


@pytest.mark.parametrize("name", ["saddle1", "saddle2_stable", "rd2"])
def test_rest_growth_constant_of_a_normal_block_is_one(name):
    # a normal A_rest has ||e^{sA}|| = e^{s rest_max_re}: the constant is
    # 1 up to the roundoff of the sampled norms
    _, _, pieces, cfg = dict(ALL_MODELS)[name]()
    c = pieces.rest_growth_constant(cfg.T_max)
    assert 1.0 <= c <= 1.0 + 4 * np.finfo(float).eps


def test_rest_growth_constant_is_the_max_of_25_samples_cached_per_t():
    # MMT-7's complement is far from normal: the sampled constant is 25.2
    _, sp, pieces, cfg = setup_mmt()
    T = cfg.T_max
    direct = max(np.linalg.norm(sla.expm(s * pieces.A_rest), 2)
                 * math.exp(-sp.rest_max_re * s)
                 for s in np.linspace(0.0, T, 25))
    c = pieces.rest_growth_constant(T)
    assert c == direct
    assert c > 25.0

    def entries():
        return [k for k in pieces._cache if k[0] == "crest"]

    assert pieces.rest_growth_constant(T) is c
    assert len(entries()) == 1
    pieces.rest_growth_constant(0.5 * T)
    assert len(entries()) == 2


# ------------------------------------------------------------------- lp_apply

def test_lp_apply_zero_remainder_is_linear_flow():
    A = np.diag([1.0, -1.0])
    m = custom_model("lin", lambda u: A @ u, lambda u: A, np.zeros(2))
    sp = eigen_split(A, 0.5)
    pieces = split_field(m, sp)
    cfg = LpConfig(lam=0.9, T_max=5.0, dt=0.01, eps=1.0, tol=1e-12)
    times = cfg.times
    Y = np.zeros((len(times), 2))
    Ynew, _ = lp_apply(pieces, cfg, np.array([0.5]), Y)
    assert Ynew[:, 0] == pytest.approx(0.5 * np.exp(times), abs=1e-12)
    assert np.abs(Ynew[:, 1]).max() == 0.0
    assert lp_solve(pieces, cfg, np.array([0.5])).diagnostics[
        "tail_bound"] == 0.0


def _plain_plan(E):
    """The ScanPlan of the plain recurrence x_j = E x_{j-1} + u_j: taps 0
    and I."""
    d = E.shape[0]
    return scan_plan(E, np.zeros((d, d)), np.eye(d))


def _scan_loop(E, X):
    """Reference for linear_scan: x_0 = X[0], x_{j+1} = E_j x_j + X[j+1],
    with the states along the last axis; E is one matrix or one per step."""
    x = np.empty_like(X)
    x[0] = X[0]
    for j in range(1, len(X)):
        Ej = E if E.ndim == 2 else E[j - 1]
        x[j] = x[j - 1] @ Ej.T + X[j]
    return x


def _scan_matrix(kind, d, rng):
    if kind == "nonnormal":
        # spectral radius 0.999, norm far above 1
        E = np.triu(rng.normal(size=(d, d)), 1) * 3.0
        return E + np.diag(rng.uniform(0.5, 0.999, size=d))
    # Jordan block at 0 (as in the MMT complement): polynomial growth
    return sla.expm(0.005 * np.eye(d, k=1))


# Widths past the blocked route's d <= 16 take the chunked route for one
# matrix too; 63, 64 and 65 nodes make 8 chunks of c = ceil(sqrt(m)) = 8, 8
# and 9 nodes (the last one padded, full, padded), and 1751 (the MMT grid)
# makes 42 chunks, whose ends a step stack scans again in chunks.  Width 64
# stops at 1751 nodes to keep the (m, d, d) step stacks small.
SCAN_SIZES = [(m, d) for d in (0, 1, 5, 17, 64)
              for m in (2, 3, 63, 64, 65, 1000, 1751, 3201)
              if d < 64 or m <= 1751]


@pytest.mark.parametrize("kind", ["nonnormal", "jordan"])
@pytest.mark.parametrize(("m", "d"), SCAN_SIZES)
def test_linear_scan_matches_loop(m, d, kind):
    rng = np.random.default_rng([m, d])
    E = _scan_matrix(kind, d, rng)
    # the constant matrix as a plan with taps 0 and I started at X[0], and
    # the same matrix given once per step
    plan = _plain_plan(E)
    steps = np.broadcast_to(E, (m - 1, d, d))
    for X in (rng.normal(size=(m, d)), rng.normal(size=(m, 3, d))):
        keep = X.copy()
        ref = _scan_loop(E, X)
        for EE, start in ((plan, X[0]), (steps, None)):
            got = linear_scan(EE, X, start)
            assert np.array_equal(X, keep)
            assert got.shape == ref.shape
            if ref.size:
                scale = np.abs(ref).max()
                assert np.abs(got - ref).max() <= 1e-13 * scale


@pytest.mark.parametrize(("m", "d"), SCAN_SIZES)
def test_linear_scan_step_matrices_match_loop(m, d):
    # a different matrix per step, spectral radius about 1 on average
    rng = np.random.default_rng([m, d, 1])
    E = (np.eye(d) + 0.01 * rng.normal(size=(m - 1, d, d))) * np.exp(
        0.002 * rng.normal(size=(m - 1, 1, 1)))
    for X in (rng.normal(size=(m, d)), rng.normal(size=(m, 3, d))):
        keep = X.copy()
        got = linear_scan(E, X)
        assert np.array_equal(X, keep)
        ref = _scan_loop(E, X)
        assert got.shape == ref.shape
        if ref.size:
            scale = np.abs(ref).max()
            assert np.abs(got - ref).max() <= 1e-13 * scale


@pytest.mark.parametrize("lead", [(), (2,)], ids=["one", "rows"])
def test_linear_scan_step_stack_starts_at_x0(lead):
    # x0 stands for the first row of X, bit for bit
    rng = np.random.default_rng(7)
    m, d = 65, 3
    E = np.eye(d) + 0.01 * rng.normal(size=(m - 1, d, d))
    X = rng.normal(size=(m,) + lead + (d,))
    x0 = rng.normal(size=lead + (d,))
    keep = X.copy()
    first = X.copy()
    first[0] = x0
    assert np.array_equal(linear_scan(E, X, x0), linear_scan(E, first))
    assert np.array_equal(X, keep)


def test_linear_scan_rejects_wrong_step_count():
    with pytest.raises(ValueError, match="step matrices"):
        linear_scan(np.zeros((4, 2, 2)), np.zeros((4, 2)))


def test_linear_scan_rejects_wrong_matrix_size():
    for X in (np.zeros((5, 2)), np.zeros((5, 0)), np.zeros((5, 3, 2))):
        with pytest.raises(ValueError, match="one step matrix of size"):
            linear_scan(_plain_plan(np.eye(3)), X)
    # a bare matrix is neither a plan nor a stack, even of the right size
    for E in (np.eye(2), np.ones(2)):
        with pytest.raises(ValueError, match="a ScanPlan or 4 step matrices"):
            linear_scan(E, np.zeros((5, 2)))
    with pytest.raises(ValueError, match="forcing taps of size 2"):
        scan_plan(np.eye(2), np.eye(2), np.eye(3))
    # no states: nothing to scan
    out = linear_scan(_plain_plan(np.zeros((0, 0))), np.zeros((5, 0)))
    assert out.shape == (5, 0)


def _tap_scan_loop(E, P, Q, U, x0):
    """Reference for linear_scan with forcing taps: x_0 = x0,
    x_j = E x_{j-1} + P u_{j-1} + Q u_j, states along the last axis."""
    x = np.empty_like(U)
    x[0] = x0
    for j in range(1, len(U)):
        x[j] = x[j - 1] @ E.T + U[j - 1] @ P.T + U[j] @ Q.T
    return x


def _route_spy(monkeypatch, route="_blocked_scan"):
    """Record the node count of each call of one of linear_scan's routes,
    its scans of block or chunk ends included."""
    calls = []
    real = getattr(linalg, route)

    def spy(E, rows, *args):
        calls.append(len(rows))
        return real(E, rows, *args)

    monkeypatch.setattr(linalg, route, spy)
    return calls


def _blocked_levels(m, b):
    """The node counts of a blocked scan of m nodes and of its ends scans:
    the ceil((n - 1) / b) block ends of n nodes are scanned again while
    there are two or more."""
    counts = [m]
    while (n := -(-(counts[-1] - 1) // b)) > 1:
        counts.append(n)
    return counts


@pytest.mark.parametrize("kind", ["nonnormal", "jordan"])
@pytest.mark.parametrize("d", [1, 2, 15, 16, 17])
def test_linear_scan_blocked_route_matches_loop(d, kind, monkeypatch):
    # b = 64 // d nodes per block while b >= 4 (d <= 16), on every grid
    rng = np.random.default_rng([d, 2])
    E = _scan_matrix(kind, d, rng)
    # nonzero forcing taps of the size of the quadrature's h * phi weights
    P, Q = 0.01 * rng.normal(size=(2, d, d))
    plan = _plain_plan(E)
    tapped = scan_plan(E, P, Q)
    b = plan.b
    assert b == tapped.b == (64 // d if d <= 16 else 0)
    calls = _route_spy(monkeypatch)
    # one to seven blocks, not a multiple of b; d = 17 is past the cut-off
    # and runs the chunked route at every m
    for m in ([2 * b - 1, 2 * b, 2 * b + 1, 7 * b + 3] if b else [8, 9, 75]):
        # recurrences on in-between axes, as lp_variational has them
        for X in (rng.normal(size=(m, d)), rng.normal(size=(m, 3, d)),
                  rng.normal(size=(m, 2, 3, d))):
            keep = X.copy()
            x0 = rng.normal(size=X.shape[1:])
            started = X.copy()
            started[0] = x0
            cases = [(plan, X[0], _scan_loop(E, X)),
                     (plan, None, _scan_loop(E, X)),
                     (plan, x0, _scan_loop(E, started)),
                     (tapped, x0, _tap_scan_loop(E, P, Q, X, x0)),
                     (tapped, None, _tap_scan_loop(E, P, Q, X, X[0]))]
            for EE, start, ref in cases:
                calls.clear()
                got = linear_scan(EE, X, start)
                assert calls == (_blocked_levels(m, b) if b else [])
                assert np.array_equal(X, keep)
                assert got.shape == ref.shape
                scale = np.abs(ref).max()
                assert np.abs(got - ref).max() <= 1e-13 * scale


@pytest.mark.parametrize("d", [1, 4, 16])
def test_blocked_scan_every_short_grid(d, monkeypatch):
    # one node, and one or two blocks with and without a partial block:
    # the blocked route takes every grid, whatever its length
    rng = np.random.default_rng([d, 5])
    E = _scan_matrix("nonnormal", d, rng)
    P, Q = 0.01 * rng.normal(size=(2, d, d))
    plan, tapped = _plain_plan(E), scan_plan(E, P, Q)
    b = plan.b
    calls = _route_spy(monkeypatch)
    for m in (1, 2, 3, b, b + 1, 2 * b):
        X = rng.normal(size=(m, 3, d))
        x0 = rng.normal(size=(3, d))
        for EE, ref in ((plan, _scan_loop(E, X)),
                        (tapped, _tap_scan_loop(E, P, Q, X, x0))):
            calls.clear()
            got = linear_scan(EE, X, ref[0])
            assert calls == _blocked_levels(m, b)
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    # only the 2b nodes have two blocks, whose two ends are one block of
    # one node of the plan of E^b
    for kept in (plan, tapped):
        assert list(kept.ends) == [(b, 1)]
        assert kept.ends[b, 1].b == 1 and not kept.ends[b, 1].ends


def test_blocked_scan_of_a_growing_matrix():
    # E = 1.2 grows by 2e10 over 130 nodes, and its 64th power scans the
    # three block ends: in blocks of two nodes, since the powers of E^64
    # past the grid (1.2^4096 in a block of 64) would overflow
    E = np.array([[1.2]])
    plan = _plain_plan(E)
    X = np.ones((130, 1))
    got = linear_scan(plan, X)
    ref = _scan_loop(E, X)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    assert list(plan.ends) == [(64, 2)]


def _plan_tree(plan):
    """The ends plans kept under plan, depth first, as (step count, plan)."""
    return [node for (s, _), sub in plan.ends.items()
            for node in [(s, sub)] + _plan_tree(sub)]


@pytest.mark.parametrize("kind", ["nonnormal", "jordan"])
@pytest.mark.parametrize(("route", "d", "m"),
                         [("_blocked_scan", 12, 20001),
                          ("_chunked_scan", 17, 3201)])
def test_ends_scanned_levels_deep(route, d, m, kind, monkeypatch):
    # d = 12 (b = 5) on 20001 nodes scans its block ends six levels deep;
    # d = 17 on 3201 nodes has 56 chunk ends, themselves in 7 chunks whose
    # 6 ends are scanned again
    rng = np.random.default_rng([d, 6])
    E = _scan_matrix(kind, d, rng)
    P, Q = 0.01 * rng.normal(size=(2, d, d))
    X = rng.normal(size=(m, 2, d))
    x0 = rng.normal(size=(2, d))
    calls = _route_spy(monkeypatch, route)
    built = []
    real = linalg._plan

    def counting(F, b, *taps):
        built.append(F.shape)
        return real(F, b, *taps)

    monkeypatch.setattr(linalg, "_plan", counting)
    for plan, ref in ((_plain_plan(E), _scan_loop(E, X)),
                      (scan_plan(E, P, Q), _tap_scan_loop(E, P, Q, X, x0))):
        calls.clear()
        built.clear()
        got = linear_scan(plan, X, ref[0])
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        if route == "_blocked_scan":
            assert calls == _blocked_levels(m, plan.b)
            assert calls == [20001, 4000, 800, 160, 32, 7, 2]
        else:
            assert calls == [3201, 56, 6, 1]
        # one plan per level below the top, each of E to the product of
        # the step counts above it, keeping no taps
        tree = _plan_tree(plan)
        assert len(built) == len(tree) == len(calls) - 1
        power = 1
        for s, sub in tree:
            power *= s
            assert sub.PT is None and sub.QT is None
            assert np.allclose(sub.E, np.linalg.matrix_power(E, power),
                               rtol=1e-12, atol=1e-12 * np.abs(sub.E).max())
        # a second scan builds no plan and gives the same bits
        kept = [id(sub) for _, sub in tree]
        assert np.array_equal(linear_scan(plan, X, ref[0]), got)
        assert len(built) == len(tree)
        assert [id(sub) for _, sub in _plan_tree(plan)] == kept


@pytest.mark.parametrize("d", [17, 64])
def test_chunked_scan_keeps_one_ends_plan_per_chunk_length(d):
    # one plan scans every grid length of SCAN_SIZES: the chunked route
    # keeps the plan of E^c per chunk length c = ceil(sqrt(m)) of a grid
    # with two chunks or more, so a grid never reads the plan kept for
    # another c, and a second scan gives the same bits as the first
    rng = np.random.default_rng([d, 7])
    E = _scan_matrix("nonnormal", d, rng)
    plan = _plain_plan(E)
    assert plan.b == 0 and not plan.ends
    sizes = [m for m, dd in SCAN_SIZES if dd == d]
    for m in sizes:
        X = rng.normal(size=(m, 2, d))
        got = linear_scan(plan, X, X[0])
        ref = _scan_loop(E, X)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.array_equal(linear_scan(plan, X, X[0]), got)
    chunks = {m: math.isqrt(m - 1) + 1 for m in sizes}
    assert set(plan.ends) == {(c, 0) for m, c in chunks.items() if m > c}
    for (c, _), sub in plan.ends.items():
        assert np.array_equal(sub.E, np.linalg.matrix_power(E, c))


@pytest.mark.parametrize("d", [2, 17])
def test_scan_into_a_view_keeps_the_bits(d):
    # the quadrature's scans write into slices of its result, read backward
    # for the unstable part; the rows are linear_scan's, bit for bit, and
    # nothing outside the slice is touched
    rng = np.random.default_rng([d, 8])
    E = _scan_matrix("nonnormal", d, rng)
    plan = scan_plan(E, *(0.01 * rng.normal(size=(2, d, d))))
    for m in (5, 301):
        for shape in ((m, d), (m, 3, d)):
            X = rng.normal(size=shape)
            x0 = rng.normal(size=shape[1:])
            want = linear_scan(plan, X[::-1], x0)
            wide = np.full(shape[:-1] + (d + 3,), np.nan)
            linalg._scan_into(plan, X[::-1], x0, wide[::-1, ..., 1:d + 1])
            assert np.array_equal(wide[::-1, ..., 1:d + 1], want)
            assert np.isnan(wide[..., 0]).all()
            assert np.isnan(wide[..., d + 1:]).all()


@pytest.mark.parametrize("m", [7, 32, 33, 3201])
def test_linear_scan_diagonal_matrix_keeps_exact_zeros(m):
    # a diagonal E (saddle, rd) never mixes components, so an input
    # component that is exactly zero stays exactly zero on either route
    E = np.diag([0.99, 0.5, 1.01, 0.7])
    X = np.random.default_rng(m).normal(size=(m, 3, 4))
    X[..., 1] = 0.0
    X[:, 2, 3] = 0.0
    # diagonal taps, as the quadrature's on a diagonal split
    tapped = scan_plan(E, np.diag([0.1, -0.2, 0.3, 0.4]),
                       np.diag([0.5, 0.6, -0.7, 0.8]))
    x0 = np.ones((3, 4))
    x0[:, 1] = 0.0
    x0[2, 3] = 0.0
    plain = _plain_plan(E)
    for EE, start in ((plain, X[0]), (plain, None), (tapped, None),
                      (tapped, x0)):
        got = linear_scan(EE, X, start)
        assert np.all(got[..., 1] == 0.0)
        assert np.all(got[:, 2, 3] == 0.0)
        assert np.all(got[:, :2, 3] != 0.0)


def test_lp_sweeps_reuse_the_scan_plans(monkeypatch):
    # the plans of Em and Ep with the quadrature's taps are built once per
    # step h, by propagators, and the plans of their block ends by the
    # first sweep; later sweeps build none
    _, _, pieces = saddle1_pieces()
    built, ends = [], []
    real, real_plan = linalg.scan_plan, linalg._plan

    def counting(E, P, Q):
        built.append(E.shape)
        return real(E, P, Q)

    def counting_ends(E, b, *taps):
        if not taps:
            ends.append(E.shape)
        return real_plan(E, b, *taps)

    monkeypatch.setattr(lp, "scan_plan", counting)
    monkeypatch.setattr(linalg, "scan_plan", counting)
    monkeypatch.setattr(linalg, "_plan", counting_ends)
    calls = _route_spy(monkeypatch)
    m = len(CFG1.times)
    Y = np.zeros((m, pieces.dim))
    Y, _ = lp_apply(pieces, CFG1, np.array([0.1]), Y)
    assert built == [(1, 1), (1, 1)]
    # the 2001 nodes are 32 blocks of 64, whose ends fit in one block
    assert ends == [(1, 1), (1, 1)]
    lp_apply(pieces, CFG1, np.array([0.1]), Y)
    lp_solve(pieces, CFG1, np.array([0.05]))
    assert built == [(1, 1), (1, 1)]
    assert ends == [(1, 1), (1, 1)]
    assert calls.count(m) > 4


def test_split_pieces_replace_starts_a_fresh_cache():
    _, _, pieces = saddle1_pieces()
    plan_m = pieces.propagators(0.01)[0]
    assert plan_m.E[0, 0] == pytest.approx(math.exp(-0.01), rel=1e-14)
    # A0 = diag(1, -1) doubled: replace derives A_plus = 2 again
    twice = dataclasses.replace(pieces, A0=2 * pieces.A0)
    assert twice.propagators(0.01)[0].E[0, 0] == pytest.approx(
        math.exp(-0.02), rel=1e-14)
    # the original keeps its own
    assert pieces.propagators(0.01)[0] is plan_m


def test_split_pieces_derive_their_transposes_and_rest_row():
    # the MMT plane wave's F(eq) is roundoff, so its remainder row is not 0
    _, sp, pieces = mmt_mi_pieces(half=3)
    for got, a in ((pieces._BT, pieces.B), (pieces._A0T, pieces.A0),
                   (pieces._BinvT, pieces.Binv)):
        assert got.flags.c_contiguous and np.array_equal(got, a.T)
    zeros = np.zeros((5, pieces.dim))
    assert np.any(pieces._rest)
    assert np.array_equal(pieces._rest, pieces.f_split(zeros)[0])
    # replace derives them again from its own fields
    doubled = dataclasses.replace(pieces, F0=2.0 * pieces.F0)
    assert np.array_equal(doubled._rest, 2.0 * pieces._rest)
    # a solve caches the plans of its step and the growth constant alone
    cfg = LpConfig(lam=0.8 * sp.lambda_plus, T_max=12.0 / sp.lambda_plus,
                   dt=0.01, eps=0.05, tol=1e-9)
    lp_solve(pieces, cfg, np.array([0.03, 0.01]))
    assert sorted(k[0] for k in pieces._cache) == ["crest", "plans"]


def test_split_pieces_are_frozen():
    _, sp, pieces = saddle1_pieces()
    with pytest.raises(dataclasses.FrozenInstanceError):
        pieces.splitting = sp
    with pytest.raises(dataclasses.FrozenInstanceError):
        pieces.A_plus = pieces.A_plus


def test_split_pieces_replace_rederives_the_splitting_arrays():
    # rd2 split at gap 1.5 has one unstable direction, at gap 0.5 two: the
    # pieces of the other splitting take its B, Binv and d_plus and the
    # blocks of its own product Binv A0 B, the values split_field gives,
    # and start with an empty plan cache
    m, _, pieces = rd_pieces(2.0, 6, gap=0.5)
    pieces.propagators(0.01)
    other = eigen_split(pieces.A0, 1.5)
    moved = dataclasses.replace(pieces, splitting=other)
    fresh = split_field(m, other)
    assert moved._cache == {} and pieces._cache
    assert (pieces.d_plus, moved.d_plus) == (2, 1)
    assert moved.B is other.B and moved.Binv is other.Binv
    for name in ("A_plus", "A_rest", "_BT", "_BinvT", "_rest"):
        assert np.array_equal(getattr(moved, name), getattr(fresh, name))
    Ahat = other.Binv @ pieces.A0 @ other.B
    assert np.array_equal(moved.A_plus, Ahat[:1, :1])
    assert np.array_equal(moved.A_rest, Ahat[1:, 1:])


def test_split_pieces_refuse_a_foreign_splitting():
    # the splitting of [[1, 0], [1, -1]] does not block-diagonalize
    # saddle1's A0 = diag(1, -1): refused however the pieces are made
    _, _, pieces = saddle1_pieces()
    foreign = eigen_split(np.array([[1.0, 0.0], [1.0, -1.0]]), 0.5)
    with pytest.raises(ValueError, match="does not block-diagonalize"):
        dataclasses.replace(pieces, splitting=foreign)
    with pytest.raises(ValueError, match="does not block-diagonalize"):
        lp.SplitPieces(pieces.model, foreign, pieces.A0, pieces.F0)


def _phi_loop_matrices(pieces, h):
    """(Em, psi1, psi1 - psi2) of -A_plus and (Ep, phi1, phi2) of A_rest:
    the phi matrices the reference loops step with."""
    Em, p1m, p2m = lp._phi_matrices(-pieces.A_plus, h)
    return (Em, p1m, p1m - p2m) + lp._phi_matrices(pieces.A_rest, h)


def _lp_apply_loop(pieces, cfg, v0_plus, Y):
    """Reference for the autonomous lp_apply: the node-by-node recurrences."""
    g = pieces.f_split(Y)
    times = cfg.times
    m, h, d = len(times), times[1] - times[0], pieces.d_plus
    gp, gr = g[:, :d], g[:, d:]
    Em, p1m, p12m, Ep, p1p, p2p = _phi_loop_matrices(pieces, h)
    new = np.empty_like(Y)
    P, S = v0_plus.copy(), np.zeros(d)
    new[m - 1, :d] = P + S
    for j in range(m - 2, -1, -1):
        P = Em @ P
        S = Em @ S - h * (p1m @ gp[j] + p12m @ (gp[j + 1] - gp[j]))
        new[j, :d] = P + S
    R = np.zeros(pieces.d_rest)
    new[0, d:] = R
    for j in range(m - 1):
        R = Ep @ R + h * (p1p @ gr[j] + p2p @ (gr[j + 1] - gr[j]))
        new[j + 1, d:] = R
    return new


@pytest.mark.parametrize("which", ["saddle1", "mmt7"])
def test_lp_apply_matches_loop_reference(which):
    if which == "saddle1":
        _, sp, pieces = saddle1_pieces()
        cfg = LpConfig(lam=0.9, T_max=16.0, dt=0.005, eps=0.1, tol=1e-9)
        v0 = np.array([0.1])
    else:
        _, sp, pieces = mmt_mi_pieces(3)
        cfg = LpConfig(lam=0.8 * sp.lambda_plus, T_max=12.0 / sp.lambda_plus,
                       dt=0.005, eps=0.05, tol=1e-9)
        v0 = np.array([0.03, 0.0])
    # two sweeps from the zero orbit give an orbit with forcing in every
    # coordinate; apply the scan and the loop to it
    Y = np.zeros((len(cfg.times), pieces.dim))
    for _ in range(2):
        Y, _ = lp_apply(pieces, cfg, v0, Y)
    got, _ = lp_apply(pieces, cfg, v0, Y)
    ref = _lp_apply_loop(pieces, cfg, v0, Y)
    for cols in (slice(0, pieces.d_plus), slice(pieces.d_plus, None)):
        scale = np.abs(ref[:, cols]).max()
        assert scale > 0
        assert np.abs(got[:, cols] - ref[:, cols]).max() <= 1e-12 * scale


def _lp_quadrature_formula(pieces, h, v0_plus, g):
    """Reference for the tapped quadrature scans: the exponential-trapezoid
    forcing built by two matmuls on g and its differences, then the plain
    recurrences by a loop; axes in between are independent orbits."""
    d = pieces.d_plus
    Em, p1m, p12m, Ep, p1p, p2p = _phi_loop_matrices(pieces, h)
    gp, gr = g[..., :d], g[..., d:]
    new = np.empty_like(g)
    X = np.empty_like(gp)
    X[0] = v0_plus
    X[1:] = (-h * (gp[:-1] @ p1m.T + np.diff(gp, axis=0) @ p12m.T))[::-1]
    new[..., :d] = _scan_loop(Em, X)[::-1]
    X = np.empty_like(gr)
    X[0] = 0.0
    X[1:] = h * (gr[:-1] @ p1p.T + np.diff(gr, axis=0) @ p2p.T)
    new[..., d:] = _scan_loop(Ep, X)
    return new


@pytest.mark.parametrize("which", ["saddle1", "rd", "mmt7", "mmt17"])
def test_lp_quadrature_matches_forcing_formula(which, monkeypatch):
    # saddle1, rd (n = 6) and MMT-7 scan both parts on the blocked route;
    # MMT-17's 32-wide complement takes the chunked route
    pieces = {"saddle1": lambda: saddle1_pieces()[2],
              "rd": lambda: rd_pieces(2.0, 6)[2],
              "mmt7": lambda: mmt_mi_pieces(3)[2],
              "mmt17": lambda: mmt_mi_pieces(8)[2]}[which]()
    d, n = pieces.d_plus, pieces.dim
    assert (linalg._block_nodes(d) > 0,
            linalg._block_nodes(pieces.d_rest) > 0) == (
                True, which != "mmt17")
    calls = _route_spy(monkeypatch)
    h, m = 0.005, 1201
    rng = np.random.default_rng(list(map(ord, which)))
    # one orbit, and orbits on an in-between axis as lp_variational has them
    for g, v0 in ((rng.normal(size=(m, n)), rng.normal(size=d)),
                  (rng.normal(size=(m, 3, n)), rng.normal(size=(3, d)))):
        calls.clear()
        got = lp._lp_quadrature(pieces, h, v0, g)
        # the scans of the remainder rows; the others scan block ends
        assert calls.count(m) == (1 if which == "mmt17" else 2)
        assert all(n < m for n in calls if n != m)
        ref = _lp_quadrature_formula(pieces, h, v0, g)
        for cols in (slice(0, d), slice(d, None)):
            scale = np.abs(ref[..., cols]).max()
            assert np.abs(got[..., cols] - ref[..., cols]).max() <= (
                1e-13 * scale)


@pytest.mark.parametrize("which", ["rd", "mmt7"])
def test_variational_matches_forcing_formula(which, monkeypatch):
    # the (m, d, n) rows of lp_variational through the tapped scans give
    # the Dq of the forcing formula
    if which == "rd":
        _, _, pieces = rd_pieces(2.0, 6)
        cfg = LpConfig(lam=0.8, T_max=30.0, dt=0.01, eps=0.1, tol=1e-11)
        base = np.array([0.05, 0.04])
    else:
        _, sp, pieces = mmt_mi_pieces(3)
        cfg = LpConfig(lam=0.8 * sp.lambda_plus, T_max=12.0 / sp.lambda_plus,
                       dt=0.005, eps=0.05, tol=1e-10)
        base = np.array([0.03, 0.0])
    res = lp_solve(pieces, cfg, base)
    _, Dq = lp_variational(res, pieces, cfg)
    monkeypatch.setattr(lp, "_lp_quadrature", _lp_quadrature_formula)
    _, Dq_ref = lp_variational(res, pieces, cfg)
    assert np.abs(Dq_ref).max() > 1e-3
    assert np.abs(Dq - Dq_ref).max() <= 1e-12


def test_lp_apply_first_and_second_iterate_saddle1():
    _, _, pieces = saddle1_pieces()
    cfg = LpConfig(lam=0.9, T_max=20.0, dt=0.005, eps=0.2, tol=1e-12)
    times = cfg.times
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


@pytest.mark.parametrize("max_iter, tol, message", [
    (0, 1e-9, "max_iter must be at least 1"),
    (-3, 1e-9, "max_iter must be at least 1"),
    (60, -1.0, "tol must be non-negative"),
    (60, math.nan, "tol must be non-negative"),
], ids=["0", "-3", "tol-1", "tol-nan"])
def test_lp_config_refuses_max_iter_below_one(max_iter, tol, message):
    # without a sweep the iteration would return the zero orbit as h, and
    # no sweep reaches a negative or NaN tol
    with pytest.raises(ValueError, match=message):
        LpConfig(lam=0.9, T_max=20.0, dt=0.01, eps=0.12, max_iter=max_iter,
                 tol=tol)


def test_lp_config_allows_zero_tol():
    assert LpConfig(lam=0.9, T_max=20.0, dt=0.01, eps=0.12, tol=0.0).tol == 0


@pytest.mark.parametrize("T_max, dt", [(20.0, 0.01), (16.0, 0.005),
                                        (12.0 / 1.37, 0.005), (1.0, 0.3)])
def test_lp_config_owns_its_grid(T_max, dt):
    cfg = LpConfig(lam=0.9, T_max=T_max, dt=dt, eps=0.1)
    want = np.linspace(-T_max, 0.0, int(round(T_max / dt)) + 1)
    assert np.array_equal(cfg.times, want)
    assert cfg.h == want[1] - want[0] and type(cfg.h) is float
    # built once, and read-only
    assert cfg.times is cfg.times
    with pytest.raises(ValueError, match="read-only"):
        cfg.times[0] = 1.0
    # a replaced config has its own grid; the original keeps its own
    finer = dataclasses.replace(cfg, dt=0.5 * dt)
    assert np.array_equal(finer.times, np.linspace(
        -T_max, 0.0, int(round(T_max / (0.5 * dt))) + 1))
    assert len(finer.times) > len(cfg.times)
    assert np.array_equal(cfg.times, want)


def test_lp_config_fields_cannot_be_assigned():
    cfg = LpConfig(lam=0.9, T_max=20.0, dt=0.01, eps=0.12)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.dt = 0.005
    assert len(cfg.times) == 2001


def test_lp_solve_orbit_times_are_a_writable_copy_of_the_grid():
    _, _, pieces = saddle1_pieces()
    cfg = LpConfig(lam=0.9, T_max=20.0, dt=0.01, eps=0.12, tol=1e-10)
    res = lp_solve(pieces, cfg, np.array([0.05]))
    assert np.array_equal(res.orbit.times, cfg.times)
    assert res.orbit.times.flags.writeable
    assert not np.shares_memory(res.orbit.times, cfg.times)


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


def test_all_unstable_splitting_has_an_empty_graph():
    # x' = x, y' = 2y + x^2: every direction is unstable at gap 0.5, so the
    # complement is empty, its phi matrices are 0 x 0 and every sweep's
    # tail bound is 0
    m = custom_model(
        "unstable2", lambda u: np.array([u[0], 2.0 * u[1] + u[0] ** 2]),
        lambda u: np.array([[1.0, 0.0], [2.0 * u[0], 2.0]]), np.zeros(2))
    pieces = split_field(m, eigen_split(m.jacobian(m.equilibrium), 0.5))
    assert (pieces.d_plus, pieces.d_rest) == (2, 0)
    cfg = LpConfig(lam=0.75, T_max=10.0, dt=0.01, eps=0.1, tol=1e-10)
    res = lp_solve(pieces, cfg, np.array([0.05, 0.03]))
    assert res.h_value.shape == (0,)
    assert res.diagnostics["tail_bound"] == 0.0
    assert res.diagnostics["iterations"] >= 2
    graph = build_manifold_graph(pieces, cfg, grid_spec=3)
    assert graph.values.shape == (5, 0)
    assert all(graph.ok)


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


def test_decay_fit_short_window_rejected():
    # nine nodes above the floor are too few for a fit
    ladder = NormLadder.euclidean(1)
    times = np.linspace(-5.0, 0.0, 51)
    states = np.zeros((51, 1))
    states[-9:, 0] = 1.0
    with pytest.raises(ValueError, match="too short"):
        decay_rate_fit(OrbitGrid(times, states), ladder, 0.0)


@pytest.mark.parametrize("seed", range(6))
def test_decay_fit_matches_lstsq_on_noisy_lines(seed):
    # the centred closed-form line is the least-squares line: slope and R^2
    # agree with np.linalg.lstsq on the same window, including the nodes
    # below the floor that the window drops
    rng = np.random.default_rng(seed)
    n, dim = int(rng.integers(12, 400)), int(rng.integers(1, 4))
    times = np.linspace(-rng.uniform(2.0, 30.0), 0.0, n)
    logs = (rng.uniform(0.2, 3.0) * times + rng.normal()
            + rng.normal(scale=10.0 ** rng.uniform(-6, 0), size=n))
    direction = rng.normal(size=dim)
    states = np.exp(logs)[:, None] * direction / np.linalg.norm(direction)
    ladder = NormLadder(dim, lambda i, r: (1.0 + i) ** r)
    r = float(rng.uniform(0.0, 2.0))
    # about a tenth of the nodes below the fit's floor, 1e-12
    states *= 1e-12 / np.quantile(
        np.linalg.norm(states * ladder.weights(r), axis=1), 0.1)
    slope, r2 = decay_rate_fit(OrbitGrid(times, states), ladder, r)

    norms = np.linalg.norm(states * ladder.weights(r), axis=1)
    keep = norms > 1e-12
    assert 0 < (~keep).sum() < n - 10
    t, y = times[keep], np.log(norms[keep])
    A = np.vstack([t, np.ones_like(t)]).T
    coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    r2_ref = 1.0 - res[0] / np.sum((y - y.mean()) ** 2)
    assert slope == pytest.approx(coef[0], rel=1e-12)
    assert r2 == pytest.approx(r2_ref, rel=1e-12)


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


def test_graph_refuses_lambda_outside_the_gap(monkeypatch):
    # a lam outside (rest_max_re, lambda_plus) = (-1, 1) fails every sample
    # alike, so the graph refuses it once, before any sample is solved
    _, _, pieces = saddle1_pieces()
    solved = []
    monkeypatch.setattr(lp, "lp_solve", lambda *a: solved.append(a))
    cfg = dataclasses.replace(CFG1, lam=5.0)
    for grid in (5, np.array([[0.05]])):
        with pytest.raises(ValueError, match=r"lambda=5\.0 outside the "
                           r"dichotomy gap \(-1\.0, 1\.0\)"):
            build_manifold_graph(pieces, cfg, grid_spec=grid)
    assert solved == []


@pytest.mark.parametrize("d", [4, 8, 12])
def test_ball_grid_takes_every_sobol_point_into_the_ball(d):
    # above dimension 3 all 64 points are kept (at d = 8 rejecting those
    # outside the ball kept none), each moved along its ray to the radius
    # eps ||x||_inf of its cube shell; the grid size is not read
    from scipy.stats import qmc
    eps = 0.05
    cube = qmc.Sobol(d, scramble=True, seed=3).random(64) * 2.0 - 1.0
    pts = lp._ball_grid(d, eps, 0, seed=3)
    assert pts.shape == (64, d)
    r = np.linalg.norm(pts, axis=1)
    assert r == pytest.approx(eps * np.abs(cube).max(axis=1), rel=1e-14)
    assert np.all(r <= eps)
    assert pts / r[:, None] == pytest.approx(
        cube / np.linalg.norm(cube, axis=1)[:, None], rel=1e-14)


def test_graph_samples_an_eight_dimensional_unstable_ball():
    A = np.diag([1.0] * 8 + [-1.0])
    m = lpmanifolds.ModelSystem(
        "lin9", lambda u: u @ A.T,
        lambda u: np.broadcast_to(A, np.shape(u) + (9,)).copy(),
        np.zeros(9), NormLadder.euclidean(9))
    pieces = split_field(m, eigen_split(A, 0.5))
    cfg = LpConfig(lam=0.5, T_max=4.0, dt=0.05, eps=0.1)
    graph = build_manifold_graph(pieces, cfg, grid_spec=3)
    assert graph.base_points.shape == (64, 8)
    assert graph.status == ["ok"] * 64
    assert np.all(graph.values == 0.0)


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


def test_graph_lipschitz_is_the_largest_pairwise_ratio():
    # lipschitz_low is the largest |h_i - h_j| / |v_i - v_j| over pairs of
    # ok samples in the ambient norm at level r-1; a failed sample and a
    # pair of equal base points (|v_i - v_j| = 0) take no part
    _, _, pieces = rd_pieces(2.0, 6)
    cfg = LpConfig(lam=0.8, T_max=30.0, dt=0.01, eps=0.08, tol=1e-10,
                   r=2.5)
    pts = np.array([[0.01, 0.0], [0.02, 0.01], [0.5, 0.0], [-0.03, 0.02],
                    [0.02, 0.01], [0.0, -0.05]])
    graph = build_manifold_graph(pieces, cfg, grid_spec=pts)
    assert graph.status[2].startswith("failed")
    ok = [i for i, s in enumerate(graph.status) if s == "ok"]
    assert len(ok) == 5
    ladder, d = pieces.model.ladder, pieces.d_plus
    ref = 0.0
    for a, i in enumerate(ok):
        for j in ok[a + 1:]:
            dv = graded_norm(pieces.B[:, :d] @ (pts[i] - pts[j]), ladder, 1.5)
            dh = graded_norm(pieces.B[:, d:] @ (graph.values[i]
                                                - graph.values[j]),
                             ladder, 1.5)
            if dv > 1e-14:
                ref = max(ref, dh / dv)
    assert ref > 0.0
    assert graph.diagnostics["lipschitz_low"] == pytest.approx(ref,
                                                               rel=1e-12)


@pytest.mark.parametrize("pairs", [1, 30, 60, 2 ** 16])
def test_largest_pair_ratio_finds_every_pair_in_any_blocks(pairs):
    # the 12 rows go in blocks of 1, 2, 5 or 12 rows; whichever pair (p, q)
    # is made the steep one, the result is the pair loop's, and a repeated
    # point (rows 2 and 7, where no other pair is moved there) takes no part
    rng = np.random.default_rng(41)
    V0, H0 = rng.normal(size=(12, 2)), rng.normal(size=(12, 3))
    V0[7], H0[7] = V0[2], H0[2] + 1.0
    Bv, Bh = rng.normal(size=(4, 2)), rng.normal(size=(4, 3))
    w = np.array([1.0, 2.0, 3.0, 4.0])
    for p in range(12):
        for q in range(p + 1, 12):
            V, H = V0.copy(), H0.copy()
            V[q], H[q] = V[p] + 1e-3, H[p] + 1.0
            ref = 0.0
            for i in range(12):
                for j in range(i + 1, 12):
                    dv = np.linalg.norm(w * (Bv @ (V[i] - V[j])))
                    if dv > 1e-14:
                        dh = np.linalg.norm(w * (Bh @ (H[i] - H[j])))
                        ref = max(ref, dh / dv)
            got = lp._largest_pair_ratio(V, Bv, H, Bh, w, pairs=pairs)
            assert got == pytest.approx(ref, rel=1e-12)
    assert lp._largest_pair_ratio(V0[:1], Bv, H0[:1], Bh, w) == 0.0


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


def test_invariance_counts_floating_point_failure_as_skipped(monkeypatch):
    # a non-finite remainder in a re-solve raises FloatingPointError; the
    # sample is skipped, as build_manifold_graph marks it failed.  A re-solve
    # runs the fixed-point iteration alone, so that is where the failure goes
    _, _, pieces = saddle1_pieces()
    pts = np.array([[-0.08], [0.05], [0.08]])
    graph = build_manifold_graph(pieces, CFG1, grid_spec=pts)
    real = lp._lp_fixed_point
    calls = []

    def flaky(pieces_, cfg_, v0):
        calls.append(v0)
        if len(calls) == 2:
            raise FloatingPointError("non-finite remainder evaluation")
        return real(pieces_, cfg_, v0)

    monkeypatch.setattr(lp, "_lp_fixed_point", flaky)
    rep = invariance_residual(graph, pieces, CFG1, 0.1)
    assert len(calls) == 3
    assert rep["skipped"] == 1
    assert np.isnan(rep["residuals"][1])
    assert math.isfinite(rep["max_residual"])
    assert rep["max_residual"] <= 1e-6


@pytest.mark.parametrize("which", ["saddle1", "rd"])
def test_invariance_flows_the_samples_as_one_batch(which, monkeypatch):
    # one integrate_rk4 call over the ok samples gives the flows that one
    # call per sample gives: bit-equal for saddle1, whose batched field
    # does the same arithmetic per row, and within 1e-15 for rd, whose
    # single-state field convolves with np.convolve
    if which == "saddle1":
        m, _, pieces = saddle1_pieces()
        cfg = CFG1
        # the last sample lies outside the eps-ball and fails
        pts = np.array([[-0.08], [0.0], [0.05], [0.08], [0.5]])
    else:
        m, _, pieces = rd_pieces(2.0, 6)
        cfg = LpConfig(lam=0.5, T_max=16.0, dt=0.01, eps=0.08, tol=1e-9)
        pts = np.array([[0.05, 0.04], [-0.03, 0.06], [0.0, 0.0], [1.0, 0.0]])
    graph = build_manifold_graph(pieces, cfg, grid_spec=pts)
    assert graph.status[-1] != "ok" and all(graph.ok[:-1])
    flows = []

    def recording(f, y0, *args):
        out = integrate_rk4(f, y0, *args)
        flows.append((f, np.array(y0), args, out))
        return out

    monkeypatch.setattr(lp, "integrate_rk4", recording)
    rep = invariance_residual(graph, pieces, cfg, 0.1)
    assert len(flows) == 1
    f, U0, args, U1 = flows[0]
    assert U0.shape == (len(pts) - 1, m.dimension)
    assert rep["skipped"] == 1 and np.isnan(rep["residuals"][-1])
    assert np.all(np.isfinite(rep["residuals"][:-1]))
    for u0, u1 in zip(U0, U1):
        single = integrate_rk4(f, u0, *args)
        if which == "saddle1":
            assert np.array_equal(u1, single)
        else:
            assert np.abs(u1 - single).max() <= 1e-15 * np.abs(single).max()


def _fixed_point_case(which):
    if which == "saddle1":
        _, _, pieces = saddle1_pieces()
        return pieces, CFG1, np.array([0.09])
    if which == "rd":
        _, _, pieces = rd_pieces(2.0, 6)
        cfg = LpConfig(lam=0.5, T_max=16.0, dt=0.01, eps=0.08, tol=1e-9)
        return pieces, cfg, np.array([0.05, -0.04])
    if which == "mmt7":
        _, sp, pieces = mmt_mi_pieces(half=3)
        cfg = LpConfig(lam=0.8 * sp.lambda_plus, T_max=12.0 / sp.lambda_plus,
                       dt=0.01, eps=0.05, tol=1e-9)
        return pieces, cfg, np.array([0.03, 0.01])
    # the quasilinear route, whose sweeps go through frozen_along
    m, sp, _ = _coupled_saddle()
    q = quasilinearize(m, sp, omega_plus=1.0, omega_minus=-1.0)
    cfg = LpConfig(lam=0.9, T_max=20.0, dt=0.01, eps=0.15, tol=1e-11)
    return q.pieces, cfg, np.array([0.06])


@pytest.mark.parametrize("which", ["saddle1", "rd", "mmt7", "quasi"])
def test_fixed_point_is_lp_solves_orbit(which):
    # lp_solve runs the fixed-point iteration and only adds diagnostics:
    # the orbit and the sweep count are the same, bit for bit
    pieces, cfg, base = _fixed_point_case(which)
    assert pieces.autonomous == (which != "quasi")
    fixed, incs, _ = lp._lp_fixed_point(pieces, cfg, base)
    res = lp_solve(pieces, cfg, base)
    assert np.array_equal(fixed.Y, res.Y)
    assert len(incs) == res.diagnostics["iterations"]
    assert np.array_equal(fixed.Y[-1, pieces.d_plus:], res.h_value)


def _counted_saddle1():
    """saddle1 as a single-state custom_model that counts its field rows."""
    rows = []

    def F(u):
        rows.append(1)
        x, y = u
        return np.array([x, -y + x * x])

    def jac(u):
        return np.array([[1.0, 0.0], [2.0 * u[0], -1.0]])

    m = custom_model("counted_saddle1", F, jac, np.zeros(2))
    sp = eigen_split(m.jacobian(m.equilibrium), 0.5)
    return split_field(m, sp), rows


def test_linear_first_sweep_makes_no_field_call():
    # the first sweep from the zero orbit is the linear flow: a fixed point
    # of k sweeps evaluates the field on k - 1 grids, lp_solve on k (its
    # residual sweep included); split_field took the one row of F(eq)
    pieces, rows = _counted_saddle1()
    cfg = LpConfig(lam=0.9, T_max=10.0, dt=0.01, eps=0.12, tol=1e-10)
    m = len(cfg.times)
    rows.clear()
    k = len(lp._lp_fixed_point(pieces, cfg, np.array([0.1]))[1])
    assert k >= 3
    assert len(rows) == (k - 1) * m
    rows.clear()
    assert len(lp._lp_fixed_point(pieces, cfg, np.array([0.1]))[1]) == k
    assert len(rows) == (k - 1) * m
    rows.clear()
    res = lp_solve(pieces, cfg, np.array([0.1]))
    assert res.diagnostics["iterations"] == k
    assert len(rows) == k * m


def _row_counted(pieces):
    """pieces whose model records the number of states of each field
    call."""
    n, field = pieces.dim, pieces.model.vector_field
    rows = []

    def counted(u):
        rows.append(np.size(u) // n)
        return field(u)

    return dataclasses.replace(pieces, model=dataclasses.replace(
        pieces.model, vector_field=counted)), rows


@pytest.mark.parametrize("which", ["saddle1", "rd", "mmt7"])
def test_linear_first_sweep_is_the_sweep_of_the_zero_orbit(which,
                                                           monkeypatch):
    # a tolerance the first sweep meets stops the fixed point there: its
    # orbit is lp_apply's of the zero orbit, bit for bit, no sweep went
    # through lp_apply and no model was called, whether F(eq) is exactly
    # zero (saddle1, rd: the linear flow, with an exactly zero complement)
    # or roundoff (mmt7): the quadrature of the remainder of F(eq) on every
    # node
    pieces, cfg, base = _fixed_point_case(which)
    rests = not np.any(pieces.F0)
    assert rests == (which != "mmt7")
    Y0 = np.zeros((len(cfg.times), pieces.dim))
    want, _ = lp_apply(pieces, cfg, base, Y0)
    counted, rows = _row_counted(pieces)
    applied = []
    monkeypatch.setattr(lp, "lp_apply",
                        lambda *a: applied.append(1) or lp_apply(*a))
    fixed, incs, _ = lp._lp_fixed_point(
        counted, dataclasses.replace(cfg, tol=1.0), base)
    assert len(incs) == 1 and not applied and rows == []
    assert np.array_equal(fixed.Y, want)
    assert np.array_equal(np.signbit(fixed.Y), np.signbit(want))
    if rests:
        assert np.all(fixed.Y[:, pieces.d_plus:] == 0.0)


@pytest.mark.parametrize("which", ["saddle1", "rd"])
def test_linear_first_sweep_keeps_every_sweep(which):
    # with the first sweep taken through lp_apply, which evaluates the
    # model on the whole zero orbit, the orbit, increments and solve
    # diagnostics (tail bound included) are the same, bit for bit.  The
    # copy's frozen_along hands back the autonomous sweep inputs, blocks
    # None included, so only the first sweep's route differs
    pieces, cfg, base = _fixed_point_case(which)
    fixed, incs, _ = lp._lp_fixed_point(pieces, cfg, base)
    full_grid = dataclasses.replace(pieces, frozen_along=pieces.sweep_inputs)
    assert not full_grid.autonomous
    full, full_incs, _ = lp._lp_fixed_point(full_grid, cfg, base)
    assert np.array_equal(fixed.Y, full.Y)
    assert np.array_equal(np.signbit(fixed.Y), np.signbit(full.Y))
    assert incs == full_incs
    assert (lp_solve(pieces, cfg, base).diagnostics
            == lp_solve(full_grid, cfg, base).diagnostics)


def test_mmt7_solve_evaluates_k_m_rows():
    # the plane wave's F(eq) is roundoff, not zero, so the first sweep is
    # not the linear flow; but every node of the zero orbit rests at the
    # equilibrium, and its remainder is built from split_field's F(eq).  A
    # solve of k sweeps evaluates k m rows: k - 1 sweeps and the residual
    # sweep on the whole grid (not (k + 1) m)
    pieces, cfg, base = _fixed_point_case("mmt7")
    assert np.any(pieces.F0)
    counted, rows = _row_counted(pieces)
    res = lp_solve(counted, cfg, base)
    k, m = res.diagnostics["iterations"], len(cfg.times)
    assert k >= 3
    assert rows == [m] * k
    want = lp_solve(pieces, cfg, base)
    assert np.array_equal(res.Y, want.Y)


def _ambient_reference_solve(pieces, cfg, v0):
    """lp_solve as a plain fixed-point loop that forms Y B^T at every use:
    each sweep takes the inputs of its whole orbit (the zero orbit
    included) from Y and the inversion state of the sweep before, the
    increment is the weighted norm of Ynew B^T - Y B^T, and the residual
    sweep's inputs and the orbit form the product again.  The tail bound
    comes from the residual sweep's remainder at -T_max, the fixed point's.
    Returns the fields of LpResult that lp_solve must match bit for bit."""
    times = cfg.times
    h = times[1] - times[0]
    BT = np.ascontiguousarray(pieces.B.T)
    w = pieces.model.ladder.weights(cfg.r - 1.0)
    decay = np.exp(-cfg.lam * times)

    def weighted(X):
        return float(np.max(decay * np.sqrt(np.einsum("ij,ij->i", X, X))))

    Y = np.zeros((len(times), pieces.dim))
    state = None
    for k in range(1, cfg.max_iter + 1):
        g, _, blocks, state = pieces.sweep_inputs(Y, Y @ BT, state)
        Ynew = lp._lp_sweep(pieces, h, v0, g, blocks)
        inc = weighted((Ynew @ BT - Y @ BT) * w)
        Y = Ynew
        if inc <= cfg.tol:
            break
    g, _, blocks, _ = pieces.sweep_inputs(Y, Y @ BT, state)
    Ychk = lp._lp_sweep(pieces, h, v0, g, blocks)
    c_rest = pieces.rest_growth_constant(cfg.T_max) if blocks is None else 1.0
    tail = (c_rest * np.linalg.norm(g[0, pieces.d_plus:])
            / (cfg.lam - pieces.splitting.rest_max_re))
    D = g[2:] - 2 * g[1:-1] + g[:-2]
    quad = float(h * np.sqrt(np.einsum("ij,ij->i", D, D)).sum() / 12.0)
    return {"h_value": Y[-1, pieces.d_plus:], "Y": Y,
            "orbit": Y @ pieces._BT + pieces.model.equilibrium,
            "iterations": k,
            "fp_residual": weighted((Ychk - Y) @ np.ascontiguousarray(
                pieces.B.T * w)),
            "error_budget": cfg.tol + tail + quad}


@pytest.mark.parametrize("which", ["saddle1", "rd", "mmt7", "mmt33",
                                   "quasi"])
def test_lp_solve_is_the_ambient_reference_bit_for_bit(which):
    # the sweeps carry one Y B^T each, and on the autonomous route the zero
    # orbit's remainder is one row built from F(eq); the loop that forms the
    # product at every use, and the inputs of every node, gives the same
    # bits
    if which == "mmt33":
        _, sp, pieces = mmt_mi_pieces(half=16)
        cfg = LpConfig(lam=0.8 * sp.lambda_plus, T_max=12.0 / sp.lambda_plus,
                       dt=0.01, eps=0.05, tol=1e-9)
        base = np.array([0.02, -0.02])
    else:
        pieces, cfg, base = _fixed_point_case(which)
    res = lp_solve(pieces, cfg, base)
    ref = _ambient_reference_solve(pieces, cfg, base)
    assert ref["iterations"] >= 3
    got = {"h_value": res.h_value, "Y": res.Y, "orbit": res.orbit.states,
           **{key: res.diagnostics[key]
              for key in ("iterations", "fp_residual", "error_budget")}}
    for key, want in ref.items():
        assert np.array_equal(got[key], want), key
        assert np.array_equal(np.signbit(got[key]), np.signbit(want)), key


@pytest.mark.parametrize("which", ["saddle1", "rd", "mmt7", "quasi"])
def test_lp_apply_forms_the_ambient_image_it_is_not_given(which):
    # lp_apply without BY forms Y B^T itself: the same sweep and inversion
    # state, bit for bit, as with the image passed in
    pieces, cfg, base = _fixed_point_case(which)
    Y = lp_solve(pieces, cfg, base).Y
    got = lp_apply(pieces, cfg, base, Y)
    want = lp_apply(pieces, cfg, base, Y, Y @ pieces.B.T)
    assert (got[1] is None) == (want[1] is None) == pieces.autonomous
    for g, w in zip(got[:1] + (got[1] or ()), want[:1] + (want[1] or ())):
        assert np.array_equal(g, w)
        assert np.array_equal(np.signbit(g), np.signbit(w))


@pytest.mark.parametrize("which", ["saddle1", "mmt7"])
def test_lp_solve_orbit_is_to_ambient(which):
    # the orbit comes from the ambient image the sweeps carried, plus the
    # equilibrium, with the bits of Y B^T + eq: signed zeros too (saddle1
    # rests at eq = 0, where the + 0 clears the sign of a -0)
    pieces, cfg, base = _fixed_point_case(which)
    assert np.any(pieces.model.equilibrium) == (which == "mmt7")
    res = lp_solve(pieces, cfg, base)
    want = res.Y @ pieces._BT + pieces.model.equilibrium
    assert np.array_equal(res.orbit.states, want)
    assert np.array_equal(np.signbit(res.orbit.states), np.signbit(want))


@pytest.mark.parametrize("which", ["saddle1", "rd"])
def test_variational_starts_from_the_linear_flow(which, monkeypatch):
    # lp_variational's first iterate is the linear flow of the identity,
    # the quadrature of zero forcing: W[j] = (e^{t_j A_plus})^T in the
    # unstable columns and exact zeros in the complement
    pieces, cfg, base = _fixed_point_case(which)
    res = lp_solve(pieces, cfg, base)
    V_ref, Dq_ref = lp_variational(res, pieces, cfg)
    d, m = pieces.d_plus, len(cfg.times)
    h = cfg.h
    calls = []
    real = lp._lp_quadrature

    def recording(p, step, v0, g):
        calls.append((step, v0, g, real(p, step, v0, g)))
        return calls[-1][3]

    monkeypatch.setattr(lp, "_lp_quadrature", recording)
    V, Dq = lp_variational(res, pieces, cfg)
    step, v0, g, flow = calls[0]
    assert step == h and np.array_equal(v0, np.eye(d))
    assert g.shape == (m, d, pieces.dim) and not np.any(g)
    assert np.all(flow[:, :, d:] == 0.0)
    assert not np.any(np.signbit(flow[:, :, d:]))
    times = cfg.times
    for j in (0, m // 2, m - 1):
        want = sla.expm(times[j] * pieces.A_plus).T
        # the steps' rounding accumulates over the m - 1 scan steps
        assert np.abs(flow[j, :, :d] - want).max() <= 1e-10 * np.abs(
            want).max()
    assert np.abs(Dq).max() > 0
    assert np.array_equal(V, V_ref) and np.array_equal(Dq, Dq_ref)


@pytest.mark.parametrize("which", ["saddle1", "rd"])
def test_invariance_residual_is_lp_solve_residual(which, monkeypatch):
    # the re-solves stop at the fixed point, yet every residual is the one
    # a full lp_solve at the flowed base point gives, bit for bit; a flowed
    # base outside the eps-ball fails lp_solve's own check and is skipped
    if which == "saddle1":
        _, _, pieces = saddle1_pieces()
        cfg, grid = CFG1, 21
    else:
        _, _, pieces = rd_pieces(2.0, 6)
        cfg = LpConfig(lam=0.5, T_max=16.0, dt=0.01, eps=0.08, tol=1e-9)
        grid = 5
    graph = build_manifold_graph(pieces, cfg, grid_spec=grid)
    assert all(graph.ok)
    flows = []

    def recording(*args):
        flows.append(integrate_rk4(*args))
        return flows[-1]

    monkeypatch.setattr(lp, "integrate_rk4", recording)
    rep = invariance_residual(graph, pieces, cfg, 0.1)
    ys = (flows[0] - pieces.model.equilibrium) @ pieces.Binv.T
    d = pieces.d_plus
    outside = 0
    for i, yi in enumerate(ys):
        try:
            h1 = lp_solve(pieces, cfg, yi[:d]).h_value
        except ValueError:
            outside += 1
            assert np.isnan(rep["residuals"][i])
            continue
        assert rep["residuals"][i] == float(np.linalg.norm(h1 - yi[d:]))
    assert rep["skipped"] == outside
    if which == "saddle1":
        # the two end samples flow out of the ball
        assert outside == 2
        assert np.isnan(rep["residuals"][[0, -1]]).all()


def test_lp_solve_refuses_non_finite_orbit(monkeypatch):
    # a sweep that returns non-finite states fails the increment norm with
    # the message OrbitGrid gives, though no OrbitGrid is built per sweep;
    # it is a numerical failure, as in the sweep's own check
    _, _, pieces = saddle1_pieces()
    real = lp.lp_apply

    def overflowing(*args):
        Y, state = real(*args)
        Y[3, 1] = np.nan
        return Y, state

    monkeypatch.setattr(lp, "lp_apply", overflowing)
    with pytest.raises(FloatingPointError,
                       match="orbit states contain non-finite"):
        lp_solve(pieces, CFG1, np.array([0.1]))


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


def test_variational_stopping_above_tol_raises():
    # two sweeps cannot reach tol = 0 on rd: the unconverged Dq is refused
    _, _, pieces = rd_pieces(2.0, 6)
    cfg = LpConfig(lam=0.8, T_max=30.0, dt=0.01, eps=0.1, tol=1e-11)
    res = lp_solve(pieces, cfg, np.array([0.05, 0.04]))
    with pytest.raises(NoContractionError, match="not reached in 2 sweeps"):
        lp_variational(res, pieces,
                       dataclasses.replace(cfg, max_iter=2, tol=0.0))


@pytest.mark.parametrize("r", [1.0, 2.0])
def test_variational_increments_are_lp_norm_of_ambient_change(r, monkeypatch):
    # lp_variational starts from the zero orbit and measures each increment
    # in lp_solve's norm: max_j e^{-lam t_j} ||(W_new - W_old)_j B^T||, with
    # the weights of level r - 1, over all the entries of node j.  MMT-7's
    # B is not orthonormal, so the norm of the split change differs.
    pieces, cfg, base = _fixed_point_case("mmt7")
    cfg = dataclasses.replace(cfg, r=r)
    n = pieces.dim
    assert np.abs(pieces.B.T @ pieces.B - np.eye(n)).max() > 0.1
    w = pieces.model.ladder.weights(r - 1.0)
    assert np.any(w != 1.0) == (r != 1.0)
    res = lp_solve(pieces, cfg, base)
    iterates, recorded = [], []
    real = lp._contract

    def recording(sweep, x, increment, tol, max_iter):
        def traced(X):
            iterates.append(X)
            return sweep(X)
        x, incs = real(traced, x, increment, tol, max_iter)
        iterates.append(x)
        recorded.extend(incs)
        return x, incs

    monkeypatch.setattr(lp, "_contract", recording)
    lp_variational(res, pieces, cfg)
    assert len(recorded) >= 3 and recorded[-1] <= cfg.tol
    assert not np.any(iterates[0])
    decay = np.exp(-cfg.lam * cfg.times)
    apart = 0.0
    for inc, new, old in zip(recorded, iterates[1:], iterates):
        amb = ((new - old) @ pieces.B.T) * w
        want = np.max(decay * np.sqrt(np.sum(amb ** 2, axis=(1, 2))))
        assert abs(inc - want) <= 1e-12 * want
        split = np.max(decay * np.linalg.norm(new - old, axis=(1, 2)))
        apart = max(apart, abs(split - want) / want)
    # at level 0 each max falls on t = 0, where only the complement moves
    # and B's complement columns are orthonormal, so the norm of the split
    # change agrees there; the weights of level 1 tell the two apart
    if r != 1.0:
        assert apart > 1e-3


def test_no_contraction_error_is_one_class():
    assert (lp.NoContractionError is linalg.NoContractionError
            is lpmanifolds.NoContractionError is cli.NoContractionError)


@pytest.mark.parametrize("which", ["rd", "mmt7"])
def test_variational_batched_jacobian_matches_per_node(which):
    # lp_variational stacks the Jacobians along the base orbit with one
    # batched jacobian call; a single-state copy of the model, evaluated
    # node by node, gives the same Dq
    if which == "rd":
        m, _, pieces = rd_pieces(2.0, 6)
        cfg = LpConfig(lam=0.8, T_max=30.0, dt=0.01, eps=0.1, tol=1e-11)
        base = np.array([0.05, 0.04])
    else:
        m, sp, pieces = mmt_mi_pieces(3)
        cfg = LpConfig(lam=0.8 * sp.lambda_plus, T_max=12.0 / sp.lambda_plus,
                       dt=0.005, eps=0.05, tol=1e-10)
        base = np.array([0.03, 0.0])
    res = lp_solve(pieces, cfg, base)
    _, Dq = lp_variational(res, pieces, cfg)
    looped = custom_model(m.name, m.vector_field, m.jacobian, m.equilibrium,
                          ladder=m.ladder)
    _, Dq_loop = lp_variational(
        res, dataclasses.replace(pieces, model=looped), cfg)
    assert np.abs(Dq).max() > 0
    assert np.abs(Dq - Dq_loop).max() <= 1e-13 * np.abs(Dq_loop).max()


# ----------------------------------------------------------- quasilinearize

def test_quasilinearize_linear_model():
    A = np.diag([1.0, -1.0])
    m = custom_model("lin", lambda u: A @ u, lambda u: A, np.zeros(2))
    sp = eigen_split(A, 0.5)
    q = quasilinearize(m, sp, omega_plus=1.0, omega_minus=-1.0)
    rng = np.random.default_rng(1)
    for _ in range(5):
        y = rng.normal(size=2) * 0.3
        assert np.abs(q.pieces.f_split(y)).max() <= 1e-10


def test_quasilinearize_roundtrip_saddle1():
    m = saddle_toy("saddle1")
    sp = eigen_split(m.jacobian(m.equilibrium), 0.5)
    q = quasilinearize(m, sp, omega_plus=1.0, omega_minus=-1.0)
    u = np.array([0.05, 0.05])
    assert np.abs(q.invert_B(q.bmap(u)) - u).max() <= 1e-10
    # both shifts (omega_plus - 1, omega_minus + 1) are 0, so
    # DB(0) = (Pp + Pr) A(0)
    Pp, Pr = _projectors(sp)
    db0 = (Pp + Pr) @ m.jacobian(m.equilibrium)
    assert np.linalg.cond(db0) < 1e3


def test_quasilinearize_takes_the_jacobian_at_the_equilibrium_once():
    # split_field's A(0) serves DB(0), the cold inversion start and the
    # transformed Jacobian at 0
    m, sp, _ = _coupled_saddle()
    calls = []

    def jac(u):
        if np.array_equal(u, m.equilibrium):
            calls.append(1)
        return m.jacobian(u)

    q = quasilinearize(dataclasses.replace(m, jacobian=jac), sp,
                       omega_plus=1.0, omega_minus=-1.0)
    assert len(calls) == 1
    assert np.array_equal(q.pieces.A0, q.pieces.model.jacobian(np.zeros(2)))


def test_quasilinearize_takes_the_field_row_at_the_equilibrium_once():
    # split_field's F(eq) row serves the cold start of the inversion; the
    # Df(0) check's central differences are single-state calls of the
    # oracle, not batch rows
    m, sp, _ = _coupled_saddle()
    rows = []

    def field(u):
        if np.ndim(u) == 2:
            rows.extend(map(tuple, u))
        return m.vector_field(u)

    q = quasilinearize(dataclasses.replace(m, vector_field=field), sp,
                       omega_plus=1.0, omega_minus=-1.0)
    assert rows.count(tuple(m.equilibrium)) == 1
    assert np.array_equal(q.pieces.F0, m.vector_field(m.equilibrium))
    assert not q.pieces.F0.any()


def test_quasilinearize_remainder_gradient_vanishes():
    m = saddle_toy("saddle1")
    sp = eigen_split(m.jacobian(m.equilibrium), 0.5)
    q = quasilinearize(m, sp)
    h = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        df = (q.pieces.f_split(e) - q.pieces.f_split(-e)) / (2 * h)
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


def test_quasilinear_solve_reuses_field_for_trajectory_residual():
    # each sweep inverts B once per node, and its blocks, remainder and
    # field all come from that inversion; the trajectory residual takes the
    # transformed field from the residual sweep instead of a field_many pass
    # over the orbit, which would run one more inversion per node
    m, sp, _ = _coupled_saddle()
    cfg = LpConfig(lam=0.9, T_max=20.0, dt=0.01, eps=0.15, tol=1e-11)
    q = quasilinearize(m, sp, omega_plus=1.0, omega_minus=-1.0)
    count = [0]

    def counted(Y, BY, state=None):
        count[0] += len(Y)
        return q.pieces.frozen_along(Y, BY, state)

    def unexpected(*args):
        raise AssertionError("lp_solve called the transformed model")

    # frozen_along inverts B once per row; every other inversion would go
    # through the transformed model, which is made to fail here
    tmodel = dataclasses.replace(
        q.pieces.model, vector_field=unexpected, jacobian=unexpected)
    pieces = dataclasses.replace(q.pieces, model=tmodel,
                                 frozen_along=counted)
    res = lp_solve(pieces, cfg, np.array([0.06]))
    nodes = len(cfg.times)
    assert nodes == 2001
    # one inversion per node for each iteration sweep and for the residual
    # sweep
    assert count[0] == nodes * (res.diagnostics["iterations"] + 1)
    times = res.orbit.times
    deriv = np.gradient(res.orbit.states, times, axis=0)
    field = q.pieces.model.field_many(res.orbit.states)
    ref = float(np.max(np.linalg.norm((deriv - field)[1:-1], axis=1)))
    assert abs(res.diagnostics["trajectory_residual"] - ref) <= 1e-10


def test_random_quadratic_saddles_cross_checked():
    # seeded random 3-D systems u' = A u + Q(u, u): the LP graph must agree
    # with the shooting oracle and stay invariant under the flow.  The field
    # and Jacobian broadcast over states (..., 3), so the models are built
    # directly rather than lifted row by row by custom_model
    rng = np.random.default_rng(77)
    for trial in range(5):
        A = np.diag([1.2, -0.8, -1.5])
        Q = 0.5 * rng.normal(size=(3, 3, 3))
        Q = 0.5 * (Q + np.transpose(Q, (0, 2, 1)))

        def F(u, Q=Q):
            return u @ A.T + np.einsum("ijk,...j,...k->...i", Q, u, u)

        def jac(u, Q=Q):
            return A + 2.0 * np.einsum("ijk,...k->...ij", Q, u)

        m = ModelSystem(f"randq{trial}", F, jac, np.zeros(3),
                        NormLadder.euclidean(3))
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


def _frozen(pieces, Y, state=None):
    """pieces.sweep_inputs along the split states Y, with their ambient
    image formed here."""
    return pieces.sweep_inputs(Y, Y @ pieces.B.T, state)


def _projectors(splitting):
    """The spectral projectors (Pp, Pr) onto X_+ and its complement in the
    split coordinates y = Binv (u - eq) of splitting."""
    d = splitting.dim_plus
    return (splitting.B[:, :d] @ splitting.Binv[:d],
            splitting.B[:, d:] @ splitting.Binv[d:])


def _invert_B_loop(model, splitting, shifts, v, tol=1e-12, max_iter=60):
    """Reference for the batched inversion: damped Newton on one state with
    B and DB built from the single-state field and Jacobian and the shifts
    (s+, s-) of the two blocks."""
    Pp, Pr = _projectors(splitting)
    s_plus, s_rest = shifts
    n = model.dimension

    def bmap(u):
        Fu = model.vector_field(u)
        return Pp @ (Fu - s_plus * u) + Pr @ (Fu - s_rest * u)

    def dbmat(u):
        A = model.jacobian(u)
        return Pp @ (A - s_plus * np.eye(n)) + Pr @ (A - s_rest * np.eye(n))

    u = np.zeros(n)
    res = bmap(u) - v
    rnorm = np.linalg.norm(res)
    for _ in range(max_iter):
        if rnorm <= tol:
            return u
        step = np.linalg.solve(dbmat(u), -res)
        lam = 1.0
        while lam > 1e-8:
            cand = u + lam * step
            rc = bmap(cand) - v
            if np.linalg.norm(rc) < rnorm:
                u, res, rnorm = cand, rc, np.linalg.norm(rc)
                break
            lam *= 0.5
        else:
            raise RuntimeError("Newton stagnation")
    assert rnorm <= tol
    return u


def _recording(model):
    """Single-state copy of model that records the state of every call."""
    calls = {"F": [], "J": []}

    def F(u):
        calls["F"].append(tuple(u))
        return model.vector_field(u)

    def jac(u):
        calls["J"].append(tuple(u))
        return model.jacobian(u)

    return custom_model(model.name, F, jac, model.equilibrium), calls


def test_inversion_evaluates_model_once_per_new_state():
    # the Newton of every row starts at u = 0, whose F and DF are taken at
    # setup, and the field of each accepted iterate is carried to G
    base, sp, _ = _coupled_saddle()
    m, calls = _recording(base)
    cfg = LpConfig(lam=0.9, T_max=20.0, dt=0.01, eps=0.15, tol=1e-11)
    q = quasilinearize(m, sp, omega_plus=1.0, omega_minus=-1.0)
    res = lp_solve(q.pieces, cfg, np.array([0.06]))
    calls["F"].clear()
    calls["J"].clear()
    _frozen(q.pieces, res.Y)
    eq = tuple(m.equilibrium)
    assert calls["F"] and calls["J"]
    assert eq not in calls["F"] and eq not in calls["J"]
    assert len(set(calls["F"])) == len(calls["F"])
    # every row of V = 0 is solved by u = 0: the blocks are those at the
    # equilibrium and nothing calls the model
    calls["F"].clear()
    calls["J"].clear()
    g, field, (Ap, Ar), _ = _frozen(q.pieces, np.zeros((4, 2)))
    assert calls == {"F": [], "J": []}
    assert np.abs(Ap - q.pieces.A_plus).max() <= 1e-15
    assert np.abs(Ar - q.pieces.A_rest).max() <= 1e-15
    assert not g.any() and not field.any()


def test_batched_inversion_matches_per_row():
    m, sp, _ = _coupled_saddle()
    q = quasilinearize(m, sp, omega_plus=1.0, omega_minus=-1.0)
    rng = np.random.default_rng(9)
    # rows at different distances from 0 take different numbers of steps
    V = rng.normal(size=(200, 2)) * rng.uniform(0.0, 0.1, size=(200, 1))
    V[0] = 0.0
    U = q.invert_B(V)
    rows = np.array([q.invert_B(v) for v in V])
    # the shifts omega_plus - 1 and omega_minus + 1
    loop = np.array([_invert_B_loop(m, sp, (0.0, 0.0), v) for v in V])
    assert np.abs(U - rows).max() <= 1e-15
    assert np.abs(U - loop).max() <= 1e-15
    assert np.abs(np.array([q.bmap(u) for u in U]) - V).max() <= 1e-12


def test_bmap_is_the_two_projector_form_on_mmt():
    # on a non-normal splitting (MMT-7) B(u) = F - CS u, with the one
    # shift matrix CS, equals Pp (F - s+ u) + Pr (F - s- u)
    m, sp, _, _ = setup_mmt()
    q = quasilinearize(m, sp)
    Pp, Pr = _projectors(sp)
    s_plus, s_rest = sp.omega_plus - 1.0, sp.omega_minus + 1.0
    U = np.random.default_rng(3).normal(size=(6, m.dimension)) * 0.05
    F = m.vector_field(m.equilibrium + U)
    want = (F - s_plus * U) @ Pp.T + (F - s_rest * U) @ Pr.T
    assert np.abs(q.bmap(U) - want).max() <= 1e-12 * np.abs(want).max()


def test_batched_inversion_reports_newton_failure():
    # the fold model of test_quasilinearize_newton_failure_message: one row
    # below the fold value fails the whole batch with the Newton error
    m = custom_model("fold", lambda u: -u + u * u,
                     lambda u: np.array([[-1.0 + 2.0 * u[0]]]), np.zeros(1))
    sp = eigen_split(m.jacobian(m.equilibrium), 0.5)
    q = quasilinearize(m, sp, omega_minus=-0.75)
    V = np.array([[0.01], [-1.0], [0.02]])
    with pytest.raises(RuntimeError, match="Newton"):
        q.invert_B(V)
    assert np.all(np.isfinite(q.invert_B(V[[0, 2]])))


def test_quasilinearize_names_the_singular_shift():
    # MMT at the acceptance setup with shifts (1, -1): s- = 0 meets the
    # phase-symmetry eigenvalue 0 of the complement block
    m, sp, _, _ = setup_mmt()
    with pytest.raises(ValueError, match=r"DB\(0\) numerically singular.*"
                       r"complement shift s- = 0 meets the eigenvalue 0 "):
        quasilinearize(m, sp, omega_plus=1.0, omega_minus=-1.0)


def test_warm_inversion_follows_every_row():
    # sweep_inputs started from the state of nearby rows (the previous
    # sweep's) agrees with a cold inversion converged to 1e-15 of each row's
    # scale: within newton_tol on every row, and within 1e-14 of the row's
    # scale where the start is already within newton_tol.  Such a row must
    # still take its own Newton step; left at its start it would be off by
    # 1e-3 of its scale, which the e^{lam |t|} weight of the LP increment
    # (7e7 at t = -20) carries past the fixed-point tolerance
    m, sp, _ = _coupled_saddle()
    q = quasilinearize(m, sp, omega_plus=1.0, omega_minus=-1.0)
    rng = np.random.default_rng(5)
    close = 0
    for scale in (1e-1, 1e-4, 1e-7, 1e-10, 1e-12):
        Y = rng.normal(size=(50, 2))
        Y *= scale / np.linalg.norm(Y, axis=1, keepdims=True)
        prev = Y * (1.0 + 1e-3 * rng.normal(size=Y.shape))
        start = _frozen(q.pieces, prev)[3]
        # the call consumes start, so its rows are read before
        near = np.linalg.norm(q.bmap(start[0]) - Y @ q.pieces.B.T,
                              axis=1) <= 1e-12
        U, FU, J = _frozen(q.pieces, Y, start)[3]
        # the shifts omega_plus - 1 and omega_minus + 1
        ref = np.array([_invert_B_loop(m, sp, (0.0, 0.0), v,
                                       tol=1e-15 * scale)
                        for v in Y @ q.pieces.B.T])
        err = np.linalg.norm(U - ref, axis=1)
        close += near.sum()
        assert np.all(err <= 1e-12)
        assert np.all(err[near] <= 1e-14 * scale)
        # the state is that of its own U: no model value is left stale
        assert np.array_equal(FU, m.vector_field(m.equilibrium + U))
        assert np.array_equal(J, m.jacobian(m.equilibrium + U))
    assert close >= 100


def test_warm_inversion_updates_the_start_state_in_place():
    # sweep_inputs consumes its state: the returned state holds the start's
    # arrays, so a sweep carries one stack of Jacobians, not two; the values
    # are those of a start that is left alone
    m, sp, _ = _coupled_saddle()
    q = quasilinearize(m, sp, omega_plus=1.0, omega_minus=-1.0)
    Y = 0.05 * np.random.default_rng(8).normal(size=(40, 2))
    start = _frozen(q.pieces, 1.01 * Y)[3]
    want = _frozen(q.pieces, Y, tuple(a.copy() for a in start))
    got = _frozen(q.pieces, Y, start)
    for new, old in zip(got[3], start):
        assert np.shares_memory(new, old)
    for g, w in zip(got[:2] + got[2] + got[3], want[:2] + want[2] + want[3]):
        assert np.array_equal(g, w)


def test_warm_start_from_converged_solve_calls_model_once_per_row():
    base, sp, _ = _coupled_saddle()
    m, calls = _recording(base)
    cfg = LpConfig(lam=0.9, T_max=20.0, dt=0.01, eps=0.15, tol=1e-11)
    q = quasilinearize(m, sp, omega_plus=1.0, omega_minus=-1.0)
    res = lp_solve(q.pieces, cfg, np.array([0.06]))
    state = _frozen(q.pieces, res.Y)[3]
    calls["F"].clear()
    calls["J"].clear()
    _frozen(q.pieces, res.Y, state)
    assert 0 < len(calls["F"]) <= len(res.Y)
    assert len(calls["J"]) <= len(res.Y)
    with pytest.raises(ValueError, match="start state has 2001 rows for 5"):
        _frozen(q.pieces, res.Y[:5], state)


@pytest.mark.parametrize("b", [0.048, 0.061, 0.073])
def test_warm_started_solve_matches_cold_start(b):
    # lp_solve hands each sweep's inversion state to the next; starting
    # every inversion cold from u = 0 instead gives the same sweeps
    m, sp, _ = _coupled_saddle()
    cfg = LpConfig(lam=0.9, T_max=20.0, dt=0.01, eps=0.15, tol=1e-11)
    q = quasilinearize(m, sp, omega_plus=1.0, omega_minus=-1.0)
    cold = dataclasses.replace(
        q.pieces, frozen_along=lambda Y, BY, state=None: (
            q.pieces.frozen_along(Y, BY)))
    warm = lp_solve(q.pieces, cfg, np.array([b]))
    ref = lp_solve(cold, cfg, np.array([b]))
    assert warm.diagnostics["iterations"] == ref.diagnostics["iterations"]
    assert np.abs(warm.h_value - ref.h_value).max() <= 1e-12


def test_quasilinear_route_agrees_on_mmt7():
    # the acceptance setup of MMT-7 with shifts (1, -2): the quasilinear
    # graph point, mapped back through invert_B, against the direct graph
    # in the split coordinates of A(0), which both routes share
    m, sp, pieces, cfg = setup_mmt()
    q = quasilinearize(m, sp, omega_plus=1.0, omega_minus=-2.0)
    d = sp.dim_plus
    v0 = np.zeros(d)
    v0[0] = 0.3 * cfg.eps
    res_v = lp_solve(q.pieces, cfg, v0)
    v_pt = q.pieces.B @ np.concatenate([res_v.base_point, res_v.h_value])
    y_pt = pieces.Binv @ q.invert_B(v_pt)
    direct = lp_solve(pieces, cfg, y_pt[:d])
    budget = 10 * (res_v.diagnostics["error_budget"]
                   + direct.diagnostics["error_budget"])
    assert np.abs(y_pt[d:] - direct.h_value).max() <= budget


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
