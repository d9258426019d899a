import math
import sys
import tracemalloc

import numpy as np
import pytest

from lpmanifolds import models
from lpmanifolds.linalg import eigen_split, integrate_rk4
from lpmanifolds.lp import quasilinearize, reversed_model
from lpmanifolds.models import (
    MmtParams,
    custom_model,
    kdv_wave_profile,
    mmt_block,
    mmt_galerkin,
    mmt_mode_set,
    mmt_plane_wave_frequency,
    mmt_unstable_scan,
    reaction_diffusion,
    saddle_toy,
)
from lpmanifolds.oracles import (finite_difference_jacobian,
                                 mmt_cubic_direct, reference_flow)


def _p(alpha=1.0, beta=1.0, sigma=1, a=1.0, xi0=1, half=2):
    return MmtParams(alpha=alpha, beta=beta, sigma=sigma, a=a, xi0=xi0,
                     mode_set=mmt_mode_set(xi0, half))


# -------------------------------------------------------------- plane wave

def test_plane_wave_frequency_unit():
    assert mmt_plane_wave_frequency(_p()) == pytest.approx(-2.0)


def test_plane_wave_frequency_zero_amplitude():
    p = _p(a=0.0, xi0=2)
    assert mmt_plane_wave_frequency(p) == pytest.approx(-4.0)


def test_plane_wave_frequency_carrier_two():
    p = _p(xi0=2)
    assert mmt_plane_wave_frequency(p) == pytest.approx(-20.0)


# -------------------------------------------------------------- mode blocks

def test_block_decouples_at_zero_amplitude():
    p = _p(a=0.0, xi0=2)
    blk = mmt_block(p, 1)
    assert blk.c == 0.0
    ev = np.sort_complex(np.linalg.eigvals(blk.block))
    expect = np.sort_complex(np.array(
        [1j * blk.c_plus, -1j * blk.c_plus, 1j * blk.c_minus,
         -1j * blk.c_minus]))
    assert np.max(np.abs(ev - expect)) < 1e-12


def test_block_carrier_two_values():
    p = _p(xi0=2)
    blk = mmt_block(p, 1)
    assert blk.c == pytest.approx(12.0)
    assert blk.c_plus == pytest.approx(-11.0)
    assert blk.c_minus == pytest.approx(61.0)
    B, C = blk.quartic_coeffs()
    assert B == pytest.approx(3554.0)
    assert np.max(np.linalg.eigvals(blk.block).real) < 1e-10


def test_block_degenerate_pair_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        mmt_block(_p(xi0=2), 2)


def test_block_characteristic_polynomial_random():
    rng = np.random.default_rng(9)
    for _ in range(25):
        alpha = rng.uniform(0.6, 1.2)
        p = MmtParams(alpha=alpha, beta=rng.uniform(0.3, min(alpha, 1.0)),
                      sigma=int(rng.choice([1, -1])), a=rng.uniform(0.2, 1.5),
                      xi0=1, mode_set=mmt_mode_set(1, 4))
        xi = int(rng.integers(-3, 5))
        if xi == 1:
            continue
        blk = mmt_block(p, xi)
        B, C = blk.quartic_coeffs()
        lam = np.linalg.eigvals(blk.block)
        vals = lam ** 4 + B * lam ** 2 + C
        scale = max(abs(B) ** 2, abs(C), 1.0)
        assert np.max(np.abs(vals)) <= 1e-10 * scale


# -------------------------------------------------------------------- scans

def test_scan_zero_amplitude_has_no_flags():
    rows = mmt_unstable_scan(_p(a=0.0, xi0=2), range(-4, 5))
    assert not any(r["flagged"] for r in rows)


def test_scan_flags_confirmed_by_eigensolve():
    # focusing modulational instability about the zero carrier
    p = MmtParams(alpha=1.0, beta=0.0, sigma=-1, a=1.2, xi0=0,
                  mode_set=mmt_mode_set(0, 4))
    rows = mmt_unstable_scan(p, range(-4, 5))
    flagged = [r for r in rows if r["flagged"]]
    assert flagged, "expected a modulational band"
    for r in rows:
        if r["flagged"]:
            assert r["confirmed"], r
        else:
            assert r["max_re"] <= 1e-8


def test_scan_asymptotic_regime_report():
    # |xi - xi0| << |xi0| at increasing amplitude: report only, flags must be
    # consistent with the eigensolve either way
    for a in (1.0, 10.0, 100.0):
        p = MmtParams(alpha=1.0, beta=1.0, sigma=1, a=a, xi0=8,
                      mode_set=mmt_mode_set(8, 2))
        rows = mmt_unstable_scan(p, [6, 7, 9, 10])
        for r in rows:
            assert r["flagged"] == (r["discriminant"] < 0)
            if r["flagged"]:
                assert r["confirmed"]


# ----------------------------------------------------------------- galerkin

def test_galerkin_equilibrium_exact():
    m = mmt_galerkin(_p(xi0=2, half=3))
    assert np.max(np.abs(m.vector_field(m.equilibrium))) <= 1e-12


def test_galerkin_jacobian_matches_fd():
    m = mmt_galerkin(_p(xi0=2, half=2))
    rng = np.random.default_rng(1)
    for _ in range(5):
        u = m.equilibrium + 0.1 * rng.normal(size=m.dimension)
        J = m.jacobian(u)
        Jfd = finite_difference_jacobian(m.vector_field, u, 1e-6)
        scale = max(np.abs(J).max(), 1.0)
        assert np.abs(J - Jfd).max() <= 1e-6 * scale


def test_galerkin_block_structure_at_plane_wave():
    p = _p(xi0=2, half=2)
    m = mmt_galerkin(p)
    J = m.jacobian(m.equilibrium)
    modes = list(p.mode_set)
    # pair (1, 3) block equals mmt_block
    blk = mmt_block(p, 1)
    i1, i3 = modes.index(1), modes.index(3)
    idx = [2 * i1, 2 * i1 + 1, 2 * i3, 2 * i3 + 1]
    assert np.abs(J[np.ix_(idx, idx)] - blk.block).max() <= 1e-10
    # off-pair entries vanish
    mask = np.zeros_like(J, dtype=bool)
    for xi in modes:
        partner = 2 * p.xi0 - xi
        if partner not in modes:
            continue
        ii = [2 * modes.index(xi), 2 * modes.index(xi) + 1]
        jj = [2 * modes.index(partner), 2 * modes.index(partner) + 1]
        for r in ii:
            for s in ii + jj:
                mask[r, s] = True
    assert np.abs(J[~mask]).max() <= 1e-12


def test_reversed_model_keeps_the_energy():
    # u' = -F(u) conserves every quantity that u' = F(u) does
    m = mmt_galerkin(MmtParams(alpha=1.0, beta=0.0, sigma=-1, a=1.2, xi0=0,
                               mode_set=mmt_mode_set(0, 3)))
    r = reversed_model(m)
    assert r.energy is m.energy
    u0 = m.equilibrium + 0.05 * np.random.default_rng(8).normal(
        size=m.dimension)
    times = np.linspace(0.0, 0.5, 11)
    states = reference_flow(r.vector_field, u0, 0.0, 0.5, t_eval=times)
    e0 = r.energy(u0)
    assert max(abs(r.energy(u) - e0) for u in states) <= 1e-9


def test_galerkin_energy_conserved_orderly():
    # RK4 energy drift per unit time scales like dt^4
    p = MmtParams(alpha=1.0, beta=0.0, sigma=-1, a=1.2, xi0=0,
                  mode_set=mmt_mode_set(0, 2))
    m = mmt_galerkin(p)
    rng = np.random.default_rng(4)
    u0 = m.equilibrium + 0.05 * rng.normal(size=m.dimension)
    e0 = m.energy(u0)
    drifts = []
    for dt in (2e-2, 1e-2):
        u = integrate_rk4(lambda t, y: m.vector_field(y), u0, 0.0, 1.0, dt)
        drifts.append(abs(m.energy(u) - e0))
    order = math.log(drifts[0] / drifts[1]) / math.log(2.0)
    const = drifts[1] / 1e-2 ** 4
    print(f"energy drift constant per unit time: {const:.3e} "
          f"(order {order:.2f})")
    assert order > 3.5, (drifts, order)


def test_galerkin_eigenvalue_quadruples():
    # Hamiltonian structure: eigenvalues come in {z, -z, conj z, -conj z}
    p = MmtParams(alpha=1.0, beta=0.0, sigma=-1, a=1.2, xi0=0,
                  mode_set=mmt_mode_set(0, 3))
    m = mmt_galerkin(p)
    lam = np.linalg.eigvals(m.jacobian(m.equilibrium))
    for z in lam:
        for target in (-z, np.conj(z), -np.conj(z)):
            assert np.min(np.abs(lam - target)) <= 1e-8


def test_galerkin_zero_mode_linearly_decoupled():
    # beta > 0: the |xi|^beta multiplier kills the zero mode at linear order
    p = _p(xi0=2, half=2, beta=0.75)
    m = mmt_galerkin(p)
    J = m.jacobian(m.equilibrium)
    modes = list(p.mode_set)
    i0 = modes.index(0)
    rows = J[2 * i0:2 * i0 + 2, :].copy()
    rows[:, 2 * i0:2 * i0 + 2] = 0.0   # keep only the coupling entries
    assert np.abs(rows).max() <= 1e-12


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("xi0,modes", [
    (0, mmt_mode_set(0, 4)),
    (2, mmt_mode_set(2, 5)),
    (1, (-5, -2, 0, 1, 4, 7)),   # non-contiguous, embedded in [-5, 7]
])
def test_galerkin_fft_matches_direct_triad_sum(beta, xi0, modes):
    p = MmtParams(alpha=1.0, beta=beta, sigma=-1, a=1.2, xi0=xi0,
                  mode_set=modes)
    m = mmt_galerkin(p)
    rng = np.random.default_rng(11)
    states = m.equilibrium + 0.2 * rng.normal(size=(4, m.dimension))
    refs = [mmt_cubic_direct(p, u) for u in states]

    def rel(x, ref):
        return np.linalg.norm(x - ref) / np.linalg.norm(ref)

    for u, (F, J, E) in zip(states, refs):
        assert rel(m.vector_field(u), F) <= 1e-13
        assert rel(m.jacobian(u), J) <= 1e-13
        assert abs(m.energy(u) - E) <= 1e-13 * abs(E)
    batch = m.field_many(states)
    assert batch.shape == states.shape
    assert rel(batch, np.array([F for F, _, _ in refs])) <= 1e-13


def _mmt_field_reference(p):
    """The MMT field as one out-of-place embed, ifft and fft, with the
    fancy-index scatter and gather and the weights applied throughout."""
    modes = list(p.mode_set)
    om = mmt_plane_wave_frequency(p)
    disp = np.array([abs(xi) ** (2 * p.alpha) for xi in modes]) + om
    wmul = np.array([1.0 if p.beta == 0.0 else abs(xi) ** p.beta
                     for xi in modes])
    q = np.array(modes) - min(modes)
    L = 3 * (int(q.max()) + 1)

    def cubic(w):
        c = np.zeros(w.shape[:-1] + (L,), dtype=complex)
        c[..., q] = w
        v = np.fft.ifft(c, norm="forward")
        v *= v.real ** 2 + v.imag ** 2
        return np.fft.fft(v, norm="forward")[..., q]

    def F(u):
        z = np.ascontiguousarray(u, dtype=float).view(np.complex128)
        out = -1j * (disp * z + p.sigma * wmul * cubic(wmul * z))
        return np.ascontiguousarray(out).view(float)
    return F


def _field_block(p):
    """Rows per padded block of the MMT field of p."""
    L = 3 * (max(p.mode_set) - min(p.mode_set) + 1)
    return max(1, models._FIELD_BLOCK_BYTES // (16 * L))


@pytest.mark.parametrize("beta", [0.0, 0.5])
@pytest.mark.parametrize("xi0,modes", [
    (0, mmt_mode_set(0, 3)),
    (1, (-5, -2, 0, 1, 4, 7)),   # non-contiguous
    (0, (1, -1, 0, 2)),          # contiguous, not ascending
    (0, mmt_mode_set(0, 31)),    # 63 modes: many blocks to a batch
])
def test_galerkin_field_is_the_reference_bit_for_bit(beta, xi0, modes):
    # the in-place transforms, slice gathers, skipped unit weights and row
    # blocks give the bits of the out-of-place formula, signed zeros
    # included, on batches that end inside, at and past a block boundary,
    # and leave the caller's states alone
    p = MmtParams(alpha=1.0, beta=beta, sigma=-1, a=1.2, xi0=xi0,
                  mode_set=modes)
    m, ref = mmt_galerkin(p), _mmt_field_reference(p)
    n, b = m.dimension, _field_block(p)
    rng = np.random.default_rng(17)
    for rows in [(), (5,), (3, 4), (b - 1,), (b,), (b + 1,), (2 * b + 3,),
                 (0,), (3, b)]:
        shape = rows + (n,)
        near = m.equilibrium + 0.2 * rng.normal(size=shape)
        signed = near.copy()
        signed[rng.random(shape) < 0.4] = -0.0
        zeros = np.where(rng.random(shape) < 0.6, -0.0, 0.0)
        sparse = zeros.copy()
        sparse[..., 1] = -0.3
        for u in (near, signed, zeros, sparse):
            kept = u.copy()
            got, want = m.vector_field(u), ref(u)
            assert got.shape == shape
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert np.array_equal(u, kept)
            assert np.array_equal(np.signbit(u), np.signbit(kept))


def test_galerkin_field_holds_one_block_at_a_time():
    # a 1751-state batch at 63 modes passes through a padded buffer of
    # about _FIELD_BLOCK_BYTES, not one of the whole batch (5.3 MB)
    p = MmtParams(alpha=1.0, beta=0.0, sigma=-1, a=1.2, xi0=0,
                  mode_set=mmt_mode_set(0, 31))
    m = mmt_galerkin(p)
    u = m.equilibrium + 0.03 * np.random.default_rng(4).normal(
        size=(1751, m.dimension))
    m.vector_field(u)
    tracemalloc.start()
    try:
        out = m.vector_field(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 2 ** 20


def test_galerkin_jacobian_exact_at_plane_wave():
    # the phase-symmetry Jordan block at 0 must stay exactly nilpotent:
    # roundoff of size 1e-16 would split its eigenvalue by ~1e-8
    p = MmtParams(alpha=1.0, beta=0.0, sigma=-1, a=1.2, xi0=0,
                  mode_set=mmt_mode_set(0, 3))
    m = mmt_galerkin(p)
    _, J_direct, _ = mmt_cubic_direct(p, m.equilibrium)
    assert np.array_equal(m.jacobian(m.equilibrium), J_direct)


def test_galerkin_mode_cap():
    big = MmtParams(alpha=1.0, beta=0.0, sigma=1, a=0.1, xi0=0,
                    mode_set=tuple(range(-40, 41)))
    with pytest.raises(ValueError, match="desk scale"):
        mmt_galerkin(big)


# -------------------------------------------------------------- saddle toys

def test_saddle1_manifold_identity():
    m = saddle_toy("saddle1")
    for x in np.linspace(-0.5, 0.5, 11):
        u = np.array([x, x * x / 3.0])
        f = m.vector_field(u)
        # on y = x^2/3: ydot - (2x/3) xdot = 0
        assert f[1] - (2.0 * x / 3.0) * f[0] == pytest.approx(0.0, abs=1e-14)


def test_saddle2_stable_manifold_identity():
    m = saddle_toy("saddle2")
    for y in np.linspace(-0.5, 0.5, 11):
        u = np.array([-y * y / 4.0, y])
        f = m.vector_field(u)
        # on x = -y^2/4: xdot - h'(y) ydot = 0 with h' = -y/2
        assert f[0] - (-y / 2.0) * f[1] == pytest.approx(0.0, abs=1e-14)


def test_saddle_jacobians_at_origin():
    m1, m2 = saddle_toy("saddle1"), saddle_toy("saddle2")
    assert m1.jacobian(np.zeros(2)) == pytest.approx(np.diag([1.0, -1.0]))
    assert m2.jacobian(np.zeros(2)) == pytest.approx(np.diag([2.0, -1.0]))


def test_saddle_unknown_name():
    with pytest.raises(ValueError, match="unknown"):
        saddle_toy("saddle3")


@pytest.mark.parametrize("name", ["saddle1", "saddle2"])
def test_saddle_field_is_lin_times_state_plus_the_square_bit_for_bit(name):
    # the field, formed a column at a time, is lin * S plus the square of
    # the other coordinate, on one state as on batches (m, 2) and (k, m, 2),
    # sign bits included (-0.0 states and products among them)
    a, j = (1.0, 0) if name == "saddle1" else (2.0, 1)
    lin = np.array([a, -1.0])
    m = saddle_toy(name)
    rng = np.random.default_rng(list(map(ord, name)))
    for S in (rng.normal(size=(3201, 2)), rng.normal(size=(3, 401, 2))):
        S[..., :7, :] = [[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0],
                         [1e-200, -0.0], [-0.0, 1e-200], [-1.0, 1.0]]
        want = lin * S
        want[..., 1 - j] += S[..., j] * S[..., j]
        for got in (m.vector_field(S), m.field_many(S),
                    np.array([m.vector_field(s) for s in S.reshape(-1, 2)]
                             ).reshape(S.shape)):
            assert got.shape == S.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


# -------------------------------------------------------- reaction-diffusion

def _rd_field_loop(lam_param, n, a):
    """Reference rd field: cosine coefficients through np.convolve."""
    full = np.zeros(2 * n - 1)
    full[n - 1] = a[0]
    for k in range(1, n):
        full[n - 1 + k] = full[n - 1 - k] = 0.5 * a[k]
    cube = np.convolve(np.convolve(full, full), full)
    mid = (len(cube) - 1) // 2
    cu = np.array([cube[mid]] + [2.0 * cube[mid + k] for k in range(1, n)])
    return np.array([lam_param - k * k for k in range(n)]) * a - cu


# rd cases by number of cosine modes
RD_MODES = {"rd": 6, "rd2": 2, "rd5": 5, "rd10": 10}


@pytest.mark.parametrize("name", ["saddle1", "saddle2", *RD_MODES])
def test_field_many_matches_stacked_vector_field(name):
    rng = np.random.default_rng(21)
    if name in RD_MODES:
        n = RD_MODES[name]
        m = reaction_diffusion(2.0, n)
        S = 0.3 * rng.normal(size=(3201, n))
        ref = np.array([_rd_field_loop(2.0, n, s) for s in S])
    else:
        m = saddle_toy(name)
        S = 0.3 * rng.normal(size=(3201, 2))
        x, y = S[:, 0], S[:, 1]
        ref = (np.stack([x, -y + x * x], axis=1) if name == "saddle1"
               else np.stack([2.0 * x + y * y, -y], axis=1))
    got = m.field_many(S)
    # evaluated as one batch: the Python calls made do not grow with the
    # number of rows, as they would in a loop over rows
    assert _python_calls(m.field_many, S) == _python_calls(
        m.field_many, S[:2])
    stacked = np.array([m.vector_field(s) for s in S])
    # roundoff is relative to the field, except against the np.convolve
    # reference at n = 2: there one row of the sample cancels the linear
    # part against the cubic (row 1238: 0.18 = 1.05 - 0.87), and the two
    # sums, each within 1.5 ulp of the exact value, differ by one ulp of
    # the terms; that comparison alone is bounded relative to the larger of
    # the field and its linear part
    terms = (np.abs(m.jacobian(m.equilibrium) @ S.T).max(axis=0)
             if name == "rd2" else 0.0)
    for other, floor in ((stacked, 0.0), (ref, terms)):
        err = np.abs(got - other).max(axis=1)
        scale = np.maximum(np.abs(other).max(axis=1), floor)
        assert np.all(err <= 1e-15 * scale)


def _rd_jacobian_loop(lam_param, n, a):
    """Reference rd Jacobian: column j is the cosine projection of
    u^2 cos(jx), by np.convolve of exponential coefficients."""
    def full(c):
        f = np.zeros(2 * n - 1)
        f[n - 1] = c[0]
        for k in range(1, n):
            f[n - 1 + k] = f[n - 1 - k] = 0.5 * c[k]
        return f

    sq = np.convolve(full(a), full(a))
    M = np.empty((n, n))
    for j in range(n):
        prod = np.convolve(sq, full(np.eye(n)[j]))
        mid = (len(prod) - 1) // 2
        M[:, j] = [prod[mid]] + [2.0 * prod[mid + k] for k in range(1, n)]
    return np.diag([lam_param - k * k for k in range(n)]) - 3.0 * M


def _python_calls(fn, arg):
    """Number of Python function and builtin calls made by fn(arg)."""
    count = [0]

    def profile(frame, event, _):
        if event in ("call", "c_call"):
            count[0] += 1

    sys.setprofile(profile)
    try:
        fn(arg)
    finally:
        sys.setprofile(None)
    return count[0]


@pytest.mark.parametrize("name", ["saddle1", "saddle2", *RD_MODES])
def test_jacobian_many_matches_stacked_jacobian(name):
    rng = np.random.default_rng(22)
    if name in RD_MODES:
        n = RD_MODES[name]
        m = reaction_diffusion(2.0, n)
        S = 0.3 * rng.normal(size=(3201, n))
        ref = np.array([_rd_jacobian_loop(2.0, n, s) for s in S])
    else:
        m = saddle_toy(name)
        S = 0.3 * rng.normal(size=(3201, 2))
        ref = np.zeros((3201, 2, 2))
        ref[:, 1, 1] = -1.0
        if name == "saddle1":
            ref[:, 0, 0], ref[:, 1, 0] = 1.0, 2.0 * S[:, 0]
        else:
            ref[:, 0, 0], ref[:, 0, 1] = 2.0, 2.0 * S[:, 1]
    got = m.jacobian(S)
    # evaluated as one batch: the Python calls made do not grow with the
    # number of rows, as they would in a loop over rows
    assert _python_calls(m.jacobian, S) == _python_calls(m.jacobian, S[:2])
    stacked = np.array([m.jacobian(s) for s in S])
    for other in (stacked, ref):
        assert got.shape == other.shape
        err = np.abs(got - other).max(axis=(1, 2))
        assert np.all(err <= 1e-15 * np.abs(other).max(axis=(1, 2)))


@pytest.mark.parametrize("n", [2, 5, 6, 10])
def test_rd_jacobian_many_keeps_parity_coupling_exactly_zero(n):
    # at a state with only even modes, u^2 has only even modes, so the
    # Jacobian couples no even mode to an odd one: those entries are zeros
    m = reaction_diffusion(2.0, n)
    S = np.random.default_rng(6).normal(size=(500, n))
    S[:, 1::2] = 0.0
    J = m.jacobian(S)
    assert np.all(J[:, 0::2, 1::2] == 0.0)
    assert np.all(J[:, 1::2, 0::2] == 0.0)
    ref = np.array([_rd_jacobian_loop(2.0, n, s) for s in S])
    assert np.array_equal(J == 0.0, ref == 0.0)


@pytest.mark.parametrize("n", [2, 5, 6, 10])
def test_rd_field_many_keeps_odd_modes_exactly_zero(n):
    # u -> u(x + pi) flips the odd cosine modes; a state with only even
    # modes stays there, and its odd field components are exact zeros
    m = reaction_diffusion(2.0, n)
    S = np.random.default_rng(5).normal(size=(500, n))
    S[:, 1::2] = 0.0
    F = m.field_many(S)
    assert np.all(F[:, 1::2] == 0.0)
    assert np.all(np.abs(F[:, 0::2]) > 0.0)


@pytest.mark.parametrize("n", [2, 5, 6, 10])
def test_rd_states_of_any_shape_take_one_path(n):
    # one state is bit for bit its one-row batch, and a (2, 7, n) batch bit
    # for bit its rows as one (14, n) batch; the batch tests above compare
    # with the np.convolve references
    m = reaction_diffusion(2.0, n)
    S = 0.3 * np.random.default_rng(23).normal(size=(2, 7, n))
    rows = S.reshape(-1, n)
    for fn, tail in ((m.vector_field, (n,)), (m.jacobian, (n, n))):
        one = fn(rows[3])
        assert one.shape == tail
        assert np.array_equal(one, fn(rows[3:4])[0])
        got = fn(S)
        assert got.shape == (2, 7) + tail
        assert np.array_equal(got.reshape((14,) + tail), fn(rows))


# ------------------------------------------------------------ model contract

def _coupled_single_state():
    # x' = x + y^2, y' = -y + x^2 from callables that see one state each
    def F(u):
        x, y = u
        return np.array([x + y * y, -y + x * x])

    def jac(u):
        x, y = u
        return np.array([[1.0, 2.0 * y], [2.0 * x, -1.0]])

    return custom_model("coupled", F, jac, np.zeros(2))


def _contract_model(name):
    if name in ("saddle1", "saddle2"):
        return saddle_toy(name)
    if name == "rd":
        return reaction_diffusion(2.0, 6)
    if name == "mmt7":
        return mmt_galerkin(MmtParams(alpha=1.0, beta=0.0, sigma=-1, a=1.2,
                                      xi0=0, mode_set=mmt_mode_set(0, 3)))
    if name == "custom":
        return _coupled_single_state()
    if name == "reversed":
        return reversed_model(saddle_toy("saddle2"))
    m = saddle_toy("saddle1")
    sp = eigen_split(m.jacobian(m.equilibrium), 0.5)
    return quasilinearize(m, sp, omega_plus=1.0,
                          omega_minus=-1.0).pieces.model


CONTRACT_MODELS = ["saddle1", "saddle2", "rd", "mmt7", "custom", "reversed",
                   "quasilinearized"]


@pytest.mark.parametrize("name", CONTRACT_MODELS)
def test_model_contract_broadcasts_over_leading_axes(name):
    # vector_field and jacobian take states of shape (..., n) and agree with
    # single-state calls stacked in the same shape: bit for bit, except rd,
    # whose table contraction goes through BLAS, which may sum one row in
    # another order than a row of a larger batch
    m = _contract_model(name)
    n = m.dimension
    rng = np.random.default_rng(31)
    bound = 1e-15 if name == "rd" else 0.0
    for lead in ((), (0,), (5,), (2, 3)):
        S = m.equilibrium + 0.05 * rng.normal(size=lead + (n,))
        rows = S.reshape(-1, n)
        for fn, tail in ((m.vector_field, (n,)), (m.jacobian, (n, n))):
            got = fn(S)
            assert got.shape == lead + tail
            stacked = np.array([fn(s) for s in rows]).reshape(lead + tail)
            per_row = (len(rows), math.prod(tail))
            err = np.abs(got - stacked).reshape(per_row).max(axis=1)
            scale = np.abs(stacked).reshape(per_row).max(axis=1)
            assert np.all(err <= bound * scale)


@pytest.mark.parametrize("name", CONTRACT_MODELS)
def test_model_refuses_states_of_the_wrong_length(name):
    m = _contract_model(name)
    n = m.dimension
    for bad in (np.zeros(n + 1), np.zeros((3, n + 1)), np.zeros((2, 3, n - 1))):
        for fn in (m.vector_field, m.jacobian):
            with pytest.raises(ValueError, match=f"expected {n}$"):
                fn(bad)


def test_single_state_model_refuses_wrong_shaped_returns():
    # a single-state callable of the wrong shape would broadcast into the
    # batch: a (1,) field as rows [x, x], a scalar Jacobian as all ones
    def field(u):
        return np.array([u[0], -u[1]])

    def jac(u):
        return np.diag([1.0, -1.0])

    short = custom_model("short", lambda u: u[:1], jac, np.zeros(2))
    scalar = custom_model("scalar", field, lambda u: 1.0, np.zeros(2))
    for fn, msg in ((short.vector_field, r"'short'.*field.*shape \(1,\)"),
                    (scalar.jacobian, r"'scalar'.*Jacobian.*shape \(\)")):
        for lead in ((), (3,), (2, 2)):
            with pytest.raises(ValueError, match=msg):
                fn(np.full(lead + (2,), 0.1))
    # a return whose shape varies by state cannot be stacked at all
    ragged = custom_model("ragged", lambda u: np.zeros(1 + (u[0] > 0)), jac,
                          np.zeros(2))
    with pytest.raises(ValueError, match="'ragged'.*varying by state"):
        ragged.vector_field(np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_rd_mode_cap():
    # the product table has (2n - 1)^2 n entries, made before any other
    # work: about 32 GB at 1000 modes
    with pytest.raises(ValueError, match="desk scale"):
        reaction_diffusion(2.0, 65)


def test_rd_unstable_dimension_half():
    m = reaction_diffusion(0.5, 5)
    sp = eigen_split(m.jacobian(m.equilibrium), 0.25)
    assert sp.dim_plus == 1


def test_rd_unstable_dimension_two():
    m = reaction_diffusion(2.0, 5)
    sp = eigen_split(m.jacobian(m.equilibrium), 0.5)
    assert sp.dim_plus == 2


def test_rd_spectrum_real():
    m = reaction_diffusion(0.5, 5)
    ev = np.linalg.eigvals(m.jacobian(m.equilibrium))
    assert np.max(np.abs(ev.imag)) <= 1e-12
    assert sorted(ev.real) == pytest.approx(
        sorted(0.5 - k * k for k in range(5)))


def test_rd_jacobian_matches_fd():
    m = reaction_diffusion(1.3, 6)
    rng = np.random.default_rng(8)
    for _ in range(5):
        u = 0.3 * rng.normal(size=6)
        J = m.jacobian(u)
        Jfd = finite_difference_jacobian(m.vector_field, u, 1e-5)
        assert np.abs(J - Jfd).max() <= 1e-6 * max(np.abs(J).max(), 1.0)


def test_rd_field_zero_at_origin():
    m = reaction_diffusion(2.0, 6)
    assert np.max(np.abs(m.vector_field(m.equilibrium))) <= 1e-12


# ----------------------------------------------------------------- kdv waves

def test_kdv_turning_point_p2():
    prof = kdv_wave_profile(1.0, 2.0, 0.0, np.linspace(-5, 5, 41))
    assert prof.phi_max == pytest.approx(1.5, abs=1e-12)


def test_kdv_turning_point_p3():
    prof = kdv_wave_profile(4.0, 3.0, 0.0, np.linspace(-2, 2, 21))
    assert prof.phi_max == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-10)


def test_kdv_sech2_oracle():
    x = np.linspace(-8.0, 8.0, 161)
    prof = kdv_wave_profile(1.0, 2.0, 0.0, x)
    exact = 1.5 / np.cosh(0.5 * x) ** 2
    assert np.max(np.abs(prof.phi - exact)) <= 1e-6


def test_kdv_metric_term_keeps_level_curve():
    x = np.linspace(-6.0, 6.0, 121)
    p0 = kdv_wave_profile(1.0, 2.0, 0.0, x)
    p1 = kdv_wave_profile(1.0, 2.0, 1.0, x)
    assert p1.phi_max == pytest.approx(1.5, abs=1e-10)
    assert p1.level_residual <= 1e-8
    # profiles genuinely differ away from the crest
    assert np.max(np.abs(p1.phi - p0.phi)) > 1e-2


def test_kdv_even_and_ode_consistent():
    x = np.linspace(-4.0, 4.0, 81)
    prof = kdv_wave_profile(2.0, 2.0, 0.5, x)
    assert prof.phi == pytest.approx(prof.phi[::-1], abs=1e-10)
    # centered difference of phi matches the stored derivative
    dphi = np.gradient(prof.phi, x)
    interior = slice(5, len(x) - 5)
    assert np.max(np.abs(dphi[interior] - prof.phi_x[interior])) <= 5e-3


def test_kdv_rejects_bad_speed():
    with pytest.raises(ValueError, match="positive"):
        kdv_wave_profile(-1.0, 2.0, 0.0, np.linspace(-1, 1, 11))
