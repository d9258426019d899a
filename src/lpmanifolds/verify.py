"""The invariant checks behind `lpman verify` and the acceptance suite.

Each check returns (ok, detail).  `CRITERIA` holds the thirteen acceptance
criteria, numbered 01..13, with their fixed tolerances and sample sets.
`CHECKS` adds the structural checks that have no acceptance counterpart;
`tests/test_acceptance.py` runs each of its entries as `test_<name>`.
Tolerances are fixed here, not calibrated at runtime.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import (
    LpConfig,
    MmtParams,
    NormLadder,
    OneFluidConfig,
    OrbitGrid,
    TwoFluidConfig,
    backward_shoot,
    build_manifold_graph,
    capillary_multiplier,
    contraction_budget,
    decay_rate_fit,
    dissipativity_check,
    eigen_split,
    froude_bond,
    graded_norm,
    hamiltonian_symmetry_check,
    invariance_residual,
    kdv_wave_profile,
    kh_bound,
    lp_solve,
    lp_variational,
    lyapunov_form,
    mmt_block,
    mmt_galerkin,
    mmt_mode_set,
    picard_solve,
    quartic_roots,
    reaction_diffusion,
    reversed_model,
    saddle_toy,
    split_field,
    variational_flow,
)
from .linalg import integrate_rk4
from .oracles import reference_flow

__all__ = ["CHECKS", "CRITERIA", "QUICK", "SUITES", "run_suite"]


# ------------------------------------------------------------ shared setups

def _setup(model, gap, cfg):
    """(model, its splitting at gap, its SplitPieces, cfg); cfg is an
    LpConfig, or a function of the splitting that gives one."""
    sp = eigen_split(model.jacobian(model.equilibrium), gap)
    return model, sp, split_field(model, sp), cfg(sp) if callable(cfg) else cfg


def setup_saddle1():
    return _setup(saddle_toy("saddle1"), 0.5, LpConfig(
        lam=0.9, T_max=20.0, dt=0.005, eps=0.12, tol=1e-10))


def setup_saddle2_stable():
    return _setup(reversed_model(saddle_toy("saddle2")), 0.5, LpConfig(
        lam=0.9, T_max=20.0, dt=0.005, eps=0.25, tol=1e-10))


def setup_saddle2_unstable():
    return _setup(saddle_toy("saddle2"), 0.5, LpConfig(
        lam=1.5, T_max=12.0, dt=0.005, eps=0.2, tol=1e-10))


def setup_rd(lam_param, gap, lam, eps=0.08):
    return _setup(reaction_diffusion(lam_param, 6), gap, LpConfig(
        lam=lam, T_max=40.0, dt=0.01, eps=eps, tol=1e-10))


def _mmt_plane_wave(half_width):
    """The CLI's default MMT parameters, the focusing plane wave at xi0 = 0,
    on the modes -half_width..half_width."""
    return MmtParams(alpha=1.0, beta=0.0, sigma=-1, a=1.2, xi0=0,
                     mode_set=mmt_mode_set(0, half_width))


def _mmt_beta1(half_width):
    """The defocusing beta = 1 family at xi0 = 2 of criteria 03 and 05."""
    return MmtParams(alpha=1.0, beta=1.0, sigma=1, a=1.0, xi0=2,
                     mode_set=mmt_mode_set(2, half_width))


def setup_mmt():
    return _setup(mmt_galerkin(_mmt_plane_wave(3)), 0.5, lambda sp: LpConfig(
        lam=0.8 * sp.lambda_plus, T_max=12.0 / sp.lambda_plus, dt=0.005,
        eps=0.05, tol=1e-9))


ALL_MODELS = [
    ("saddle1", setup_saddle1),
    ("saddle2_stable", setup_saddle2_stable),
    ("rd2", lambda: setup_rd(2.0, 0.5, 0.8)),
    ("mmt", setup_mmt),
]


def _all_pass(results) -> tuple[bool, str]:
    """(every ok, the details joined by "; ") of (ok, detail) pairs, all of
    which are evaluated."""
    results = list(results)
    return (all(ok for ok, _ in results),
            "; ".join(detail for _, detail in results))


def _per_model(check) -> tuple[bool, str]:
    """_all_pass of check(name, model, splitting, pieces, cfg) over the
    setups of ALL_MODELS."""
    return _all_pass(check(name, *setup()) for name, setup in ALL_MODELS)


def _interior_base(d, eps, fractions=(0.5, 0.25)):
    """The interior base point of criteria 06, 08 and 09: fractions of eps
    on the first unstable coordinates, as many as d has, and 0 on the rest.
    The default is off the axes (on rd2's axis (0.5 eps, 0) h is 0)."""
    base = np.zeros(d)
    base[:len(fractions)] = np.multiply(fractions[:d], eps)
    return base


def _flow_models():
    """(name, model, Picard start amplitude, (amplitude, T) of the
    variational check or None to skip it) for the flows of criteria 12 and
    13."""
    return [
        ("saddle1", saddle_toy("saddle1"), 0.1, (0.1, 1.0)),
        ("saddle2", saddle_toy("saddle2"), 0.1, (0.1, 1.0)),
        ("rd0.5", reaction_diffusion(0.5, 5), 0.08, None),
        ("rd2", reaction_diffusion(2.0, 5), 0.08, (0.05, 1.0)),
        ("mmt", mmt_galerkin(_mmt_plane_wave(2)), 0.05, (0.05, 0.5)),
    ]


# ------------------------------------------------------------------ criteria

def check_analytic_manifold_reproduction():
    _, _, pieces, cfg = setup_saddle1()
    xs = np.linspace(-0.1, 0.1, 21)
    worst = 0.0
    for x in xs:
        h = lp_solve(pieces, cfg, np.array([x])).h_value[0]
        worst = max(worst, abs(h - x * x / 3.0))
    _, _, p2, c2 = setup_saddle2_stable()
    for y in np.linspace(-0.2, 0.2, 21):
        h = lp_solve(p2, c2, np.array([y])).h_value[0]
        worst = max(worst, abs(h - (-y * y / 4.0)))
    return (worst <= 1e-6,
            f"saddle1/saddle2 analytic graphs, worst error {worst:.3e}")


def check_oracle_equivalence():
    # (name, setup, base points, shooting time, shooting tol); on MMT-7 the
    # shooting Newton stagnates near 1e-10, the reference flow's error on
    # the plane wave, so it stops at 1e-9
    cases = [
        ("saddle1", setup_saddle1, [-0.1, -0.05, 0.05, 0.1], 15.0, 1e-11),
        ("saddle2", setup_saddle2_unstable, [-0.15, 0.1, 0.15], 8.0, 1e-11),
        ("rd0.5", lambda: setup_rd(0.5, 0.25, 0.4, eps=0.06),
         [-0.05, 0.03, 0.05], 35.0, 1e-11),
        ("rd2", dict(ALL_MODELS)["rd2"],
         [(0.05, 0.04), (-0.04, 0.02), (0.02, -0.05)], 25.0, 1e-11),
        ("mmt", setup_mmt, [(0.045, 0.0), (0.02, 0.03), (0.0, -0.04)],
         10.0, 1e-9),
    ]

    def one(name, setup, points, T, tol):
        model, sp, pieces, cfg = setup()
        ok, worst_ratio = True, 0.0
        for pt in points:
            pt = np.atleast_1d(np.asarray(pt, dtype=float))
            res = lp_solve(pieces, cfg, pt)
            sh = backward_shoot(model, sp, pt, T=T, tol=tol)
            diff = float(np.max(np.abs(res.h_value - sh.matched_value)))
            budget = 10.0 * (res.diagnostics["error_budget"]
                             + sh.match_residual + 1e-8)
            worst_ratio = max(worst_ratio, diff / budget)
            ok = ok and diff <= budget
        return ok, f"{name} worst diff/budget {worst_ratio:.2f}"

    return _all_pass(one(*case) for case in cases)


def check_mmt_block_consistency():
    rng = np.random.default_rng(2024)
    worst = 0.0
    draws = 0
    while draws < 100:
        alpha = rng.uniform(0.6, 1.2)
        beta = rng.uniform(0.3, min(alpha, 1.0))
        xi0 = int(rng.integers(1, 3))
        xi = int(rng.integers(-3, 5))
        if xi == xi0:
            continue
        p = MmtParams(alpha=alpha, beta=beta,
                      sigma=int(rng.choice([1, -1])),
                      a=rng.uniform(0.2, 1.5), xi0=xi0,
                      mode_set=tuple(sorted({xi0, xi, 2 * xi0 - xi})))
        blk = mmt_block(p, xi)
        B, C = blk.quartic_coeffs()
        if abs(B * B - 4 * C) < 1e-6 * max(B * B, 1.0):
            continue   # reject near-degenerate quartics (eigensolve noise)
        roots = quartic_roots(blk.c_plus, blk.c_minus, blk.c)
        ev = list(np.linalg.eigvals(blk.block))
        d = 0.0
        for rt in roots:
            j = int(np.argmin([abs(rt - w) for w in ev]))
            d = max(d, abs(rt - ev.pop(j)))
        worst = max(worst, d)
        draws += 1
    # pairwise block-diagonality of the full Galerkin Jacobian
    worst_off = 0.0
    for p in (_mmt_beta1(3), _mmt_plane_wave(3)):
        m = mmt_galerkin(p)
        J = m.jacobian(m.equilibrium)
        modes = list(p.mode_set)
        mask = np.zeros_like(J, dtype=bool)
        for xi in modes:
            partner = 2 * p.xi0 - xi
            ii = [2 * modes.index(xi), 2 * modes.index(xi) + 1]
            jj = (ii if partner not in modes else
                  ii + [2 * modes.index(partner),
                        2 * modes.index(partner) + 1])
            for r in ii:
                for s in jj:
                    mask[r, s] = True
        worst_off = max(worst_off, float(np.abs(J[~mask]).max()))
    ok = worst <= 1e-10 and worst_off <= 1e-12
    return ok, (f"quartic vs eigensolve {worst:.2e} (100 draws), "
                f"off-pair entries {worst_off:.2e}")


def check_lyapunov_identity():
    rng = np.random.default_rng(404)
    worst_res, worst_margin, min_eig = 0.0, -math.inf, math.inf
    for _ in range(200):
        n = int(rng.integers(2, 13))
        R = rng.normal(size=(n, n))
        A = R - (np.linalg.eigvals(R).real.max()
                 + rng.uniform(0.1, 2.0)) * np.eye(n)
        om = np.linalg.eigvals(A).real.max() + rng.uniform(0.05, 1.0)
        form = lyapunov_form(A, om)
        res = np.linalg.norm(A.T @ form.L + form.L @ A - 2 * om * form.L
                             + np.eye(n))
        worst_res = max(worst_res, res)
        min_eig = min(min_eig, np.linalg.eigvalsh(form.L).min())
        worst_margin = max(worst_margin, dissipativity_check(form, A, om))
    ok = worst_res <= 1e-10 and min_eig > 0 and worst_margin <= 1e-10
    return ok, (f"200 matrices: residual {worst_res:.2e}, min eig "
                f"{min_eig:.2e}, dissipativity margin {worst_margin:.2e}")


def check_hamiltonian_spectral_symmetry():
    worst = 0.0
    for p in (_mmt_beta1(15),      # 31 modes
              MmtParams(alpha=0.75, beta=0.5, sigma=-1, a=0.8, xi0=1,
                        mode_set=mmt_mode_set(1, 15)),
              _mmt_plane_wave(15)):
        m = mmt_galerkin(p)
        rep = hamiltonian_symmetry_check(m.jacobian(m.equilibrium))
        worst = max(worst, rep["worst"])
    return (worst <= 1e-8,
            f"lambda -> -conj(lambda) pairing defect {worst:.2e} "
            f"(mode sets up to 31)")


def check_decay_rate_window():
    def one(name, model, sp, pieces, cfg):
        res = lp_solve(pieces, cfg, _interior_base(pieces.d_plus, cfg.eps))
        dev = OrbitGrid(res.orbit.times,
                        res.orbit.states - model.equilibrium)
        lam_fit, r2 = decay_rate_fit(dev, model.ladder, cfg.r)
        g = sp.realized_gap
        inside = (lam_fit >= sp.rest_max_re + 0.05 * g
                  and lam_fit <= sp.lambda_plus_max + 0.05 * g)
        return inside and r2 > 0.99, (
            f"{name}: {lam_fit:.3f} in "
            f"({sp.rest_max_re:.2f}, {sp.lambda_plus_max:.2f})"
            f"+margin, R2 {r2:.5f}")

    return _per_model(one)


def check_invariance_residual():
    def one(name, model, sp, pieces, cfg):
        d = pieces.d_plus
        # samples inside the ball so the flowed base point stays admissible
        growth = math.exp(sp.lambda_plus_max * 0.1)
        r0 = 0.8 * cfg.eps / growth
        pts = [np.zeros(d)]
        for s in (-1.0, 0.5, 1.0):
            v = np.zeros(d)
            v[0] = s * r0
            if d > 1:
                v[1] = 0.4 * s * r0
                v /= max(np.linalg.norm(v) / r0, 1.0)
            pts.append(v)
        graph = build_manifold_graph(pieces, cfg, grid_spec=np.array(pts))
        rep = invariance_residual(graph, pieces, cfg, 0.1)
        budget = 10.0 * (cfg.tol + float(np.nanmax(graph.error_budget))
                         + 1e-8)
        good = rep["skipped"] == 0 and rep["max_residual"] <= budget
        return good, f"{name}: {rep['max_residual']:.2e} <= {budget:.2e}"

    return _per_model(one)


def check_tangency():
    def one(name, model, sp, pieces, cfg):
        d = pieces.d_plus
        res0 = lp_solve(pieces, cfg, np.zeros(d))
        _, Dq0 = lp_variational(res0, pieces, cfg)
        good = np.linalg.norm(Dq0) <= 1e-6
        # finite differences of the graph at criterion 06's base point
        base = _interior_base(d, cfg.eps)
        res = lp_solve(pieces, cfg, base)
        _, Dq = lp_variational(res, pieces, cfg)
        step = 1e-4 * max(cfg.eps, 1e-2)
        worst_rel = 0.0
        for j in range(d):
            e = np.zeros(d)
            e[j] = step
            hp = lp_solve(pieces, cfg, base + e).h_value
            hm = lp_solve(pieces, cfg, base - e).h_value
            fd = (hp - hm) / (2 * step)
            denom = max(np.linalg.norm(fd), 1e-7)
            worst_rel = max(worst_rel,
                            float(np.linalg.norm(Dq[:, j] - fd) / denom))
        return good and worst_rel <= 1e-3, (
            f"{name}: |Dq(0)|={np.linalg.norm(Dq0):.1e}, "
            f"fd rel {worst_rel:.1e}")

    return _per_model(one)


def check_parameter_robustness():
    def one(name, model, sp, pieces, cfg):
        base = _interior_base(pieces.d_plus, cfg.eps, (0.4,))
        g = sp.realized_gap
        lam0 = sp.rest_max_re + 0.5 * g
        cfg0 = replace(cfg, lam=lam0)
        h0 = lp_solve(pieces, cfg0, base).h_value
        worst = 0.0
        for variant in (replace(cfg0, T_max=2 * cfg.T_max),
                        replace(cfg0, lam=lam0 + 0.2 * g),
                        replace(cfg0, lam=lam0 - 0.2 * g)):
            h1 = lp_solve(pieces, variant, base).h_value
            worst = max(worst, float(np.abs(h1 - h0).max()))
        # 10x tol plus the shared quadrature budget: the dt-level error is
        # common to all variants, so the comparison floor is the tol scale
        thresh = 10 * cfg.tol + 1e-7
        return worst <= thresh, f"{name}: max shift {worst:.2e}"

    return _per_model(one)


def check_contraction_budget():
    b = contraction_budget(1.0, 0.1, 1.0, -1.0, 1.0, 0.0)
    b2 = contraction_budget(1.0, 1.0, 1.0, -1.0, 1.0, 0.0)
    exact = (abs(b.L1 - 0.2) < 1e-15 and b2.L1 == 2.0
             and b2.feasible_eps is None)
    m, sp, pieces, _ = setup_saddle1()
    cfg = LpConfig(lam=0.5, T_max=20.0, dt=0.01, eps=0.05, tol=1e-11)
    res = lp_solve(pieces, cfg, np.array([0.05]))
    radius = float(np.max(np.linalg.norm(res.Y, axis=1))) * 1.5 + 1e-9
    rng = np.random.default_rng(10)
    cf = 0.0
    for _ in range(500):
        y1 = rng.normal(size=2)
        y2 = rng.normal(size=2)
        y1 *= radius * rng.uniform(0, 1) / np.linalg.norm(y1)
        y2 *= radius * rng.uniform(0, 1) / np.linalg.norm(y2)
        dv = np.linalg.norm(y1 - y2)
        if dv > 1e-12:
            df = np.linalg.norm(pieces.f_split(y1[None])[0]
                                - pieces.f_split(y2[None])[0])
            cf = max(cf, df / dv)
    pred = contraction_budget(1.0, cf, 1.0, sp.rest_max_re, sp.lambda_plus,
                              cfg.lam)
    measured = res.diagnostics["contraction_factor"]
    ok = exact and measured <= pred.L1
    return ok, (f"L1(0.1) = {b.L1} exact; L1(1) = {b2.L1} infeasible; "
                f"measured {measured:.3e} <= "
                f"predicted {pred.L1:.3e} (sampled Cf={cf:.3f})")


def check_waterwave_criteria():
    nu = (1.0, math.sqrt(0.5))   # rho|nu|^2 sums to b = 2
    inf_cfg = TwoFluidConfig(rho_plus=1.0, rho_minus=2.0, nu_plus=(nu[0],),
                             nu_minus=(nu[1],), h_plus=math.inf,
                             h_minus=math.inf, g=1.0, sigma=1.0)
    thresh = kh_bound(inf_cfg)
    fin_cfg = TwoFluidConfig(rho_plus=1.0, rho_minus=2.0, nu_plus=(nu[0],),
                             nu_minus=(nu[1],), h_plus=1e3, h_minus=1e3,
                             g=1.0, sigma=1.0)
    gap = abs(kh_bound(fin_cfg) - thresh)
    scan_ok = True
    flagged = []
    for c in (0.2, 0.5, 0.9):
        one = OneFluidConfig(g=1.0, sigma=1.0, h0=1.0, c_vec=(c,))
        _, _, flag = froude_bond(one)
        if flag:
            flagged.append(c)
            for k in np.logspace(-3, 3, 241):
                if capillary_multiplier(np.array([k]), one) < 0:
                    scan_ok = False
    ok = thresh == 0.0 and gap <= 1e-6 and scan_ok and 0.5 in flagged
    return ok, (f"threshold bound = {thresh} (exact), finite-depth "
                f"convergence {gap:.2e}, froude flag implies "
                f"nonnegative scan: {scan_ok}, flagged c {flagged}")


def check_picard_integrator():
    def one(name, model, amp):
        v0 = model.equilibrium.copy()
        v0[0] += amp
        orbit, diag = picard_solve(model, v0, 0.5, 1e-3, tol=1e-11)
        diff = np.linalg.norm(
            orbit.states[-1] - reference_flow(model.vector_field, v0, 0.0, 0.5))
        good = diff <= 1e-7 and diag["contraction_factor"] < 1.0
        return good, (f"{name}: diff {diff:.1e}, "
                      f"factor {diag['contraction_factor']:.2e}")

    return _all_pass(one(name, model, amp)
                     for name, model, amp, _ in _flow_models())


def check_variational_flow():
    def one(name, model, amp, T):
        u0 = model.equilibrium.copy()
        u0[0] += amp
        times = np.linspace(0.0, T, 501)
        orbit = OrbitGrid(times, reference_flow(model.vector_field, u0, 0.0,
                                                T, t_eval=times))
        U = variational_flow(model, orbit)
        D = U[-1]
        h = 1e-5
        worst = 0.0
        n = model.dimension
        cols = range(n) if n <= 4 else [0, 1, n - 1]
        for j in cols:
            e = np.zeros(n)
            e[j] = h
            up = reference_flow(model.vector_field, u0 + e, 0.0, T)
            um = reference_flow(model.vector_field, u0 - e, 0.0, T)
            fd = (up - um) / (2 * h)
            worst = max(worst, float(np.linalg.norm(D[:, j] - fd)
                                     / max(np.linalg.norm(fd), 1e-9)))
        return worst <= 1e-3, f"{name}: rel {worst:.1e}"

    return _all_pass(one(name, model, *var)
                     for name, model, _, var in _flow_models() if var)


# ----------------------------------------------------------- structural checks

def check_graded_monotone():
    ladder = NormLadder.fourier([0, 1, 2, 3], lambda r: r)
    rng = np.random.default_rng(7)
    for _ in range(50):
        v = rng.normal(size=8)
        n0 = graded_norm(v, ladder, 0.0)
        n1 = graded_norm(v, ladder, 1.0)
        n2 = graded_norm(v, ladder, 2.0)
        if not (n0 <= n1 * (1 + 1e-14) and n1 <= n2 * (1 + 1e-14)):
            return False, f"ladder monotonicity violated ({n0}, {n1}, {n2})"
    return True, "||v||_r nondecreasing in r on 50 random draws"


def check_projector_algebra():
    worst = 0.0
    for model, gap in ((saddle_toy("saddle1"), 0.5),
                       (reaction_diffusion(0.5, 5), 0.25),
                       (mmt_galerkin(_mmt_plane_wave(3)), 0.5)):
        A = model.jacobian(model.equilibrium)
        sp = eigen_split(A, gap)
        # the spectral projectors of the split coordinates y = Binv (u - eq)
        d = sp.dim_plus
        P = sp.B[:, :d] @ sp.Binv[:d]
        R = np.eye(A.shape[0]) - P
        worst = max(worst,
                    np.linalg.norm(P @ P - P),
                    np.linalg.norm(P @ R),
                    np.linalg.norm(P @ A @ R) / max(np.linalg.norm(A), 1.0),
                    np.linalg.norm(R @ A @ P) / max(np.linalg.norm(A), 1.0))
    ok = worst <= 1e-8
    return ok, f"projector algebra worst defect {worst:.2e}"


def check_rk4_composition():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def f(t, y):
        return A @ y

    v0 = np.array([1.0, 0.0])
    v_direct = integrate_rk4(f, v0, 0.0, 1.5, 1e-3)
    v_mid = integrate_rk4(f, v0, 0.0, 0.7, 1e-3)
    v_comp = integrate_rk4(f, v_mid, 0.7, 1.5, 1e-3)
    err = np.linalg.norm(v_direct - v_comp)
    return err <= 1e-10, f"composition defect {err:.2e}"


def check_kdv():
    prof = kdv_wave_profile(1.0, 2.0, 0.0, np.linspace(-8, 8, 101))
    exact = 1.5 / np.cosh(0.5 * prof.x) ** 2
    err = np.max(np.abs(prof.phi - exact))
    ok = err <= 1e-6 and abs(prof.phi_max - 1.5) <= 1e-8
    return ok, f"sech^2 error {err:.2e}, residual {prof.level_residual:.2e}"


CRITERIA = [
    ("01_analytic_manifold_reproduction", check_analytic_manifold_reproduction),
    ("02_oracle_equivalence", check_oracle_equivalence),
    ("03_mmt_block_consistency", check_mmt_block_consistency),
    ("04_lyapunov_identity", check_lyapunov_identity),
    ("05_hamiltonian_spectral_symmetry", check_hamiltonian_spectral_symmetry),
    ("06_decay_rate_window", check_decay_rate_window),
    ("07_invariance_residual", check_invariance_residual),
    ("08_tangency", check_tangency),
    ("09_parameter_robustness", check_parameter_robustness),
    ("10_contraction_budget", check_contraction_budget),
    ("11_waterwave_criteria", check_waterwave_criteria),
    ("12_picard_integrator", check_picard_integrator),
    ("13_variational_flow", check_variational_flow),
]

CHECKS = CRITERIA + [
    ("graded_monotone", check_graded_monotone),
    ("projector_algebra", check_projector_algebra),
    ("rk4_composition", check_rk4_composition),
    ("kdv_profile", check_kdv),
]

# the entries that each run in under 0.2 s; the whole registry takes about
# 5 s on 2 cores, the longest check being criterion 02 at about 2 s
QUICK = {"03_mmt_block_consistency", "04_lyapunov_identity",
         "05_hamiltonian_spectral_symmetry", "10_contraction_budget",
         "11_waterwave_criteria", "graded_monotone", "projector_algebra",
         "rk4_composition"}

SUITES = ("all", "quick")


def run_suite(suite: str = "all") -> bool:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r} (choose from "
                         f"{', '.join(SUITES)})")
    ok_all = True
    first_fail = None
    for name, fn in CHECKS:
        if suite == "quick" and name not in QUICK:
            continue
        try:
            ok, detail = fn()
        except Exception as exc:   # a crash is a failure, keep scanning
            ok, detail = False, f"exception: {type(exc).__name__}: {exc}"
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok and first_fail is None:
            first_fail = name
        ok_all = ok_all and ok
    if first_fail is not None:
        print(f"first failing invariant: {first_fail}")
    return ok_all
