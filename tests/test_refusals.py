"""Refusals of invalid input across the package: each case must raise a
ValueError itself, not a subclass, with its message.  Every case here is a
`raise` that no other test, criterion or benchmark run reaches."""

import math

import numpy as np
import pytest

from lpmanifolds import verify
from lpmanifolds.graded import NormLadder, OrbitGrid, as_state, graded_norm
from lpmanifolds.linalg import LyapunovForm, eigen_split, scan_plan
from lpmanifolds.lp import contraction_budget, quasilinearize, split_field
from lpmanifolds.models import (
    MmtParams,
    kdv_wave_profile,
    mmt_block,
    reaction_diffusion,
    saddle_toy,
)
from lpmanifolds.oracles import finite_difference_jacobian
from lpmanifolds.waterwave import OneFluidConfig, TwoFluidConfig, froude_bond


def _mmt(**kw):
    return MmtParams(**{"alpha": 1.0, "beta": 0.0, "sigma": -1, "a": 1.2,
                        "xi0": 0, "mode_set": (-1, 0, 1), **kw})


def _two_fluid(**kw):
    return TwoFluidConfig(**{"rho_plus": 1.0, "rho_minus": 2.0,
                             "nu_plus": (0.0,), "nu_minus": (0.0,),
                             "h_plus": math.inf, "h_minus": math.inf,
                             "g": 1.0, "sigma": 1.0, **kw})


def _foreign_split():
    # saddle1's A(0) = diag(1, -1) with the splitting of [[1, 0], [1, -1]],
    # whose unstable direction (2, 1) is not an eigenvector of A(0)
    split_field(saddle_toy("saddle1"),
                eigen_split(np.array([[1.0, 0.0], [1.0, -1.0]]), 0.5))


def _invert_nan():
    # a batch: a single state is refused earlier, by as_state
    m = saddle_toy("saddle1")
    q = quasilinearize(m, eigen_split(m.jacobian(m.equilibrium), 0.5))
    q.invert_B(np.array([[0.0, 0.0], [np.nan, 0.0]]))


CASES = {
    "as_state-2d": (lambda: as_state(np.zeros((2, 2))),
                    r"1-D vector, got shape \(2, 2\)"),
    "graded_norm-negative-r": (
        lambda: graded_norm(np.ones(2), NormLadder.euclidean(2), -1.0),
        "norm level r must be nonnegative"),
    "orbit-times-not-increasing": (
        lambda: OrbitGrid([0.0, 0.0], np.zeros((2, 1))),
        "strictly increasing"),
    "orbit-length-mismatch": (
        lambda: OrbitGrid([0.0, 1.0], np.zeros((3, 1))),
        "states/times length mismatch"),
    "orbit-non-finite": (
        lambda: OrbitGrid([0.0, 1.0], [[0.0], [np.nan]]),
        "orbit states contain non-finite entries"),
    "eigen_split-not-square": (
        lambda: eigen_split(np.zeros((2, 3)), 0.5),
        r"expected a square matrix, got shape \(2, 3\)"),
    "eigen_split-non-finite": (
        lambda: eigen_split(np.array([[np.inf, 0.0], [0.0, 1.0]]), 0.5),
        "matrix contains non-finite entries"),
    "lyapunov-not-symmetric": (
        lambda: LyapunovForm(np.array([[1.0, 1.0], [0.0, 1.0]]), 0.0),
        "L is not symmetric"),
    "lyapunov-not-positive": (lambda: LyapunovForm(-np.eye(2), 0.0),
                              "L is not positive definite"),
    "scan_plan-not-square": (
        lambda: scan_plan(np.zeros((2, 3)), np.eye(2), np.eye(2)),
        r"square step matrix, got shape \(2, 3\)"),
    "split_field-foreign-splitting": (_foreign_split,
                                      "does not block-diagonalize"),
    "mmt-carrier-not-in-modes": (lambda: _mmt(xi0=5),
                                 "xi0 must be in the mode set"),
    "mmt-duplicate-modes": (lambda: _mmt(mode_set=(0, 1, 1)),
                            "mode_set has duplicates"),
    "mmt_block-negative-a": (lambda: mmt_block(_mmt(a=-1.0), 1),
                             "amplitude a must be nonnegative"),
    "rd-one-mode": (lambda: reaction_diffusion(0.5, 1),
                    "at least two cosine modes"),
    "kdv-p-at-most-1": (
        lambda: kdv_wave_profile(1.0, 1.0, 0.0, np.linspace(-1, 1, 5)),
        "power p must exceed 1"),
    "kdv-negative-a": (
        lambda: kdv_wave_profile(1.0, 2.0, -1.0, np.linspace(-1, 1, 5)),
        "metric coefficient a must be nonnegative"),
    "fd-jacobian-step": (
        lambda: finite_difference_jacobian(lambda u: u, np.zeros(2), 0.0),
        "h_step must be positive"),
    "run_suite-unknown": (lambda: verify.run_suite("nope"),
                          "unknown suite 'nope'"),
    "contraction_budget-C0": (
        lambda: contraction_budget(0.0, 0.1, 1.0, -1.0, 1.0, 0.0),
        "constants must be positive"),
    "one-fluid-sigma": (lambda: OneFluidConfig(g=1.0, sigma=0.0, h0=1.0),
                        "surface tension sigma must be positive"),
    "one-fluid-g": (lambda: OneFluidConfig(g=-1.0, sigma=1.0, h0=1.0),
                    "gravity must be nonnegative"),
    "two-fluid-density": (lambda: _two_fluid(rho_plus=0.0),
                          "densities must be positive"),
    "two-fluid-sigma": (lambda: _two_fluid(sigma=-1.0),
                        "surface tension sigma must be positive"),
    "two-fluid-depth": (lambda: _two_fluid(h_minus=0.0),
                        "depths must be positive"),
    "froude-zero-gravity": (
        lambda: froude_bond(OneFluidConfig(g=0.0, sigma=1.0, h0=1.0)),
        "Froude requires positive gravity"),
    "invert_B-non-finite": (_invert_nan,
                            "state contains non-finite entries"),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES)
def test_invalid_input_is_refused(call, message):
    with pytest.raises(ValueError, match=message) as info:
        call()
    assert type(info.value) is ValueError
