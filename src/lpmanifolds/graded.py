"""Graded coefficient spaces: per-coordinate weight ladders and sampled orbits.

A finite Galerkin truncation carries a scale of norms indexed by a level r >= 0.
The scale is realized by per-coordinate multiplicative weights mu_i(r), with
mu_i(0) = 1 and mu_i nondecreasing in r, so that

    ||v||_r = sqrt( sum_i mu_i(r)^2 v_i^2 ).

For Fourier models the weights are Sobolev-type, mu_xi(r) = (1+|xi|^2)^(s(r)/2)
normalized so the level-0 norm is Euclidean.  Orbits on a backward time grid
carry the exponentially weighted sup norm max_j e^(-lam*t_j) ||v(t_j)||_r,
in which lp._lp_fixed_point measures the Lyapunov-Perron increments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "NormLadder",
    "OrbitGrid",
    "as_state",
    "graded_norm",
]


def as_state(v, dim: int | None = None) -> np.ndarray:
    """Validate and return a 1-D float state vector (finite entries only)."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"state must be a 1-D vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("state contains non-finite entries")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"state has length {arr.shape[0]}, expected {dim}")
    return arr


@dataclass(frozen=True)
class NormLadder:
    """Per-coordinate weight ladder mu_i(r) defining the graded norms.

    weight_fn(i, r) must return a positive multiplier with weight_fn(i, 0) == 1
    and nondecreasing behavior in r.
    """

    dim: int
    weight_fn: Callable[[int, float], float]

    def weights(self, r: float) -> np.ndarray:
        return np.array([self.weight_fn(i, r) for i in range(self.dim)])

    @staticmethod
    def euclidean(dim: int) -> "NormLadder":
        """Trivial ladder: all levels equal to the Euclidean norm."""
        return NormLadder(dim, lambda i, r: 1.0)

    @staticmethod
    def fourier(modes: Sequence[int], s_of_r: Callable[[float], float]
                ) -> "NormLadder":
        """Sobolev ladder on a Fourier mode list.

        mu_xi(r) = (1+|xi|^2)^((s(r)-s(0))/2), repeated for the real/imaginary
        components of each retained mode.  Subtracting s(0) pins mu(0) = 1; on
        a finite truncation this differs from the raw H^{s(r)} weights by the
        fixed H^{s(0)} factor, so level ratios are unchanged.
        """
        modes = list(modes)
        s0 = s_of_r(0.0)

        def w(i: int, r: float) -> float:
            xi = modes[i // 2]
            return float((1.0 + xi * xi) ** (0.5 * (s_of_r(r) - s0)))

        return NormLadder(2 * len(modes), w)


def graded_norm(v, ladder: NormLadder, r: float) -> float:
    """||v||_r = sqrt(sum mu_i(r)^2 v_i^2); 0 iff v = 0, nondecreasing in r."""
    if r < 0:
        raise ValueError("norm level r must be nonnegative")
    arr = as_state(v)
    if arr.shape[0] != ladder.dim:
        raise ValueError(
            f"dimension mismatch: vector has {arr.shape[0]}, ladder has {ladder.dim}")
    w = ladder.weights(r)
    return float(np.sqrt(np.sum((w * arr) ** 2)))


@dataclass
class OrbitGrid:
    """A trajectory sampled on a uniform time grid.

    Lyapunov-Perron orbits use grids t_j = -T_max + j*dt ending at 0; the
    Picard integrator uses grids on [0, T].  states has shape (len(times), dim).
    """

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.times.ndim != 1 or len(self.times) == 0:
            raise ValueError("orbit must have at least one time node")
        if np.any(np.diff(self.times) <= 0) and len(self.times) > 1:
            raise ValueError("orbit times must be strictly increasing")
        if self.states.shape[0] != self.times.shape[0]:
            raise ValueError("states/times length mismatch")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("orbit states contain non-finite entries")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0


def _row_norms(X: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of X (k, n), in one einsum pass."""
    return np.sqrt(np.einsum("ij,ij->i", X, X))


def _trajectory_residual(states: np.ndarray, field: np.ndarray,
                         h: float) -> float:
    """The largest centred-difference residual |(u_{j+1} - u_{j-1}) / 2h -
    F(u_j)| over the interior nodes of states (m, n) on a uniform grid of
    step h, with field (m, n) the vector field at the nodes; 0 when there
    is no interior node."""
    if len(states) <= 2:
        return 0.0
    deriv = np.gradient(states, h, axis=0)
    return float(np.max(_row_norms((deriv - field)[1:-1])))
