import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lpmanifolds
from lpmanifolds.linalg import eigen_split
from lpmanifolds.lp import lp_solve, reversed_model, split_field
from lpmanifolds.models import reaction_diffusion, saddle_toy
from lpmanifolds.oracles import (
    backward_shoot,
    finite_difference_jacobian,
    quartic_roots,
    reference_flow,
)
from lpmanifolds.verify import setup_mmt


def test_shoot_saddle1_exact_manifold():
    m = saddle_toy("saddle1")
    sp = eigen_split(m.jacobian(m.equilibrium), 0.5)
    res = backward_shoot(m, sp, np.array([0.1]), T=15.0, tol=1e-10)
    assert res.matched_value[0] == pytest.approx(1.0 / 300.0, abs=1e-6)
    assert res.match_residual <= 1e-10


@pytest.mark.parametrize("model, T, exact", [
    (saddle_toy("saddle1"), 15.0, lambda x: x * x / 3.0),
    (reversed_model(saddle_toy("saddle2")), 8.0, lambda y: -y * y / 4.0),
], ids=["saddle1", "saddle2_reversed"])
def test_shoot_matches_exact_manifold(model, T, exact):
    # saddle1: y = x^2/3.  The stable manifold x = -y^2/4 of saddle2 is the
    # unstable one of its time reversal.  Both splittings use the axes.
    sp = eigen_split(model.jacobian(model.equilibrium), 0.5)
    for b in (-0.1, -0.05, 0.05, 0.1):
        res = backward_shoot(model, sp, np.array([b]), T=T, tol=1e-12)
        assert abs(res.matched_value[0] - exact(b)) <= 1e-13


def test_shoot_trivial_target():
    m = saddle_toy("saddle1")
    sp = eigen_split(m.jacobian(m.equilibrium), 0.5)
    res = backward_shoot(m, sp, np.array([0.0]), T=10.0, tol=1e-12)
    assert np.abs(res.matched_value).max() <= 1e-9


def test_shoot_agrees_with_lp_solve_on_a_non_normal_splitting():
    # MMT-7's split basis is far from orthonormal (max|B^T B - I| is 0.29),
    # so the oracle must read u(0) as Binv (u(0) - eq), as lp_solve does;
    # the limit is criterion 02's
    model, sp, pieces, cfg = setup_mmt()
    B = sp.B
    assert np.abs(B.T @ B - np.eye(len(B))).max() > 0.1
    base = np.array([0.045, 0.0])
    res = lp_solve(pieces, cfg, base)
    sh = backward_shoot(model, sp, base, T=10.0, tol=1e-9)
    diff = np.abs(res.h_value - sh.matched_value).max()
    limit = 10.0 * (res.diagnostics["error_budget"] + sh.match_residual
                    + 1e-8)
    assert diff <= limit


def test_shoot_requires_low_dimension():
    m = reaction_diffusion(10.0, 6)   # k = 0..3 unstable: dim 4
    sp = eigen_split(m.jacobian(m.equilibrium), 0.5)
    assert sp.dim_plus == 4
    with pytest.raises(ValueError, match="dim"):
        backward_shoot(m, sp, np.zeros(4), T=5.0)


def test_fd_jacobian_linear_exact():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(4, 4))
    J = finite_difference_jacobian(lambda u: A @ u, rng.normal(size=4), 1e-5)
    assert np.abs(J - A).max() <= 1e-9


def test_fd_jacobian_hand_example():
    def F(u):
        return np.array([u[0] ** 2, u[0] * u[1]])

    J = finite_difference_jacobian(F, np.array([1.0, 2.0]), 1e-5)
    assert J == pytest.approx(np.array([[2.0, 0.0], [2.0, 1.0]]), abs=1e-6)


def test_fd_jacobian_refuses_empty_state():
    with pytest.raises(ValueError, match="nonempty state"):
        finite_difference_jacobian(lambda u: u, np.zeros(0))


def test_split_field_makes_no_single_state_call_at_equilibrium():
    # the Df(0) check differences F at eq +- h B e_j only; F(eq) itself
    # comes from one batch call
    model = saddle_toy("saddle1")
    field, eq = model.vector_field, model.equilibrium
    at_eq = []

    def recording(u):
        if np.ndim(u) == 1 and np.array_equal(u, eq):
            at_eq.append(u)
        return field(u)

    model = dataclasses.replace(model, vector_field=recording)
    split_field(model, eigen_split(model.jacobian(eq), 0.5))
    assert at_eq == []


def test_quartic_decoupled():
    roots = quartic_roots(3.0, 5.0, 0.0)
    expect = sorted([3j, -3j, 5j, -5j], key=lambda z: (z.real, z.imag))
    assert np.allclose(roots, expect, atol=1e-12)


def test_quartic_double_real_pair():
    # c+ = c- = 0: lambda^4 - 2c^2 lambda^2 + c^4 = (lambda^2 - c^2)^2
    roots = quartic_roots(0.0, 0.0, 2.0)
    assert sorted(z.real for z in roots) == pytest.approx(
        [-2.0, -2.0, 2.0, 2.0])
    assert np.max(np.abs([z.imag for z in roots])) <= 1e-12


def test_quartic_carrier_case_imaginary():
    roots = quartic_roots(-11.0, 61.0, 12.0)
    assert np.max(np.abs([z.real for z in roots])) <= 1e-10


def test_reference_flow_exponential():
    for t1 in (1.0, 5.0, -3.0):
        y = reference_flow(lambda y: y, [1.0], 0.0, t1)
        assert y.shape == (1,)
        assert abs(y[0] - np.exp(t1)) <= 1e-12 * np.exp(t1)


@pytest.mark.parametrize("t1", [2.0, -2.0])
def test_reference_flow_t_eval_rows(t1):
    times = np.linspace(0.0, t1, 7)
    states = reference_flow(lambda y: np.array([y[1], -y[0]]),
                            [1.0, 0.0], 0.0, t1, t_eval=times)
    assert states.shape == (7, 2)
    exact = np.stack([np.cos(times), -np.sin(times)], axis=1)
    assert np.abs(states - exact).max() <= 1e-11


def test_reference_flow_blow_up_raises():
    # y' = y^2, y(0) = 1 blows up at t = 1
    with pytest.raises(RuntimeError, match="reference flow failed"):
        reference_flow(lambda y: y * y, [1.0], 0.0, 2.0)


def test_package_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate is imported on first use only, so `lpman` starts fast
    src = str(Path(lpmanifolds.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, lpmanifolds; "
            "print('scipy.integrate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "False"
