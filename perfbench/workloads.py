"""The three benchmark workloads: graph_sweep, mmt_scaling and quasilinear.

Each workload has three phases.  `setup` builds the models and their
spectral splittings (it is timed as `setup_s`).  `round` performs one round
of the timed operations; a run repeats whole rounds.  `check` confirms the
outputs of the last round against independent computations or properties
the method must have, outside the timed phase.

Timed phases read the clock of a `speed.SpeedSampler`, which reports
reference-speed seconds (see speed.py).  Every round records named figures
(`RoundResult.time`).  Each workload names its small job and its large job
among them, and records `solves_per_s`, the lp_solve calls it completed per
second of solving.

The inputs are drawn from the run's seed; the program only sees the drawn
inputs.  `Scale` shrinks the sample grids and time grids for the smoke run.
"""

from __future__ import annotations

import contextlib
import io
import math
import resource
from dataclasses import dataclass, field

import numpy as np
import scipy.integrate

import lpmanifolds as lpm
from lpmanifolds import cli, models, oracles


@dataclass(frozen=True)
class Scale:
    """Problem sizes; the default is the benchmark, `smoke()` a quick run."""

    saddle_grid: int = 21
    mmt_dt: float = 0.005
    quasi_points: int = 3
    picard_points: int = 5

    @staticmethod
    def smoke() -> "Scale":
        return Scale(saddle_grid=5, mmt_dt=0.01, quasi_points=1,
                     picard_points=1)


@dataclass
class Check:
    name: str
    passed: bool
    detail: str


@dataclass
class RoundResult:
    """Timings and outputs of the rounds of a run."""

    clock: object      # speed.SpeedSampler: clock() and elapsed(mark)
    timings: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)

    def time(self, metric: str, seconds: float) -> None:
        self.timings.setdefault(metric, []).append(seconds)


# numerical failures the library raises; an operation that raises one is
# counted as failed instead of ending the run
NUMERICAL_ERRORS = (lpm.NoContractionError, RuntimeError, ValueError,
                    FloatingPointError, np.linalg.LinAlgError)


def _attempt(res: RoundResult, label: str, fn, *args, **kwargs):
    """Run one timed operation; returns (output, seconds), or None when it
    raised a numerical failure, which is counted in `res`."""
    res.attempted += 1
    mark = res.clock.clock()
    try:
        out = fn(*args, **kwargs)
    except NUMERICAL_ERRORS as exc:
        res.failed += 1
        res.failures.append(f"{label}: {type(exc).__name__}: {exc}")
        return None
    return out, res.clock.elapsed(mark)


# ---------------------------------------------------------------------------
# graph_sweep: `lpman manifold` on saddle1 and the reaction-diffusion model

class GraphSweep:
    name = "graph_sweep"
    SMALL_JOB, LARGE_JOB = "graph_s.saddle1", "graph_s.rd"
    # fixed settings of the two `lpman manifold` runs
    SADDLE = {"lam": 0.9, "t_max": 16.0, "dt": 0.005, "tol": 1e-9,
              "eps": (0.095, 0.100)}
    # grid 5 is also the smallest with samples on and off the axes, which
    # the symmetry and oracle checks need, so the smoke run keeps it
    RD = {"lambda_param": 2.0, "modes": 6, "grid": 5, "lam": 0.5,
          "t_max": 16.0, "dt": 0.005, "tol": 1e-9, "eps": (0.076, 0.080)}
    SHOOT_T = 10.0

    def __init__(self, seed: int, scale: Scale):
        rng = np.random.default_rng([seed, 1])
        self.scale = scale
        self.eps_saddle = float(rng.uniform(*self.SADDLE["eps"]))
        self.eps_rd = float(rng.uniform(*self.RD["eps"]))
        self.oracle_pick = int(rng.integers(1 << 30))

    def setup(self) -> None:
        self.saddle = lpm.saddle_toy("saddle1")
        self.saddle_sp = lpm.eigen_split(
            self.saddle.jacobian(self.saddle.equilibrium), 0.5)
        self.saddle_pieces = lpm.split_field(self.saddle, self.saddle_sp)
        self.rd = lpm.reaction_diffusion(self.RD["lambda_param"],
                                         self.RD["modes"])
        # the gap `lpman` derives for rd: half the smallest nonzero |rate|
        rates = [abs(self.RD["lambda_param"] - k * k)
                 for k in range(self.RD["modes"])]
        self.rd_gap = 0.5 * min(r for r in rates if r > 1e-9)
        self.rd_sp = lpm.eigen_split(self.rd.jacobian(self.rd.equilibrium),
                                     self.rd_gap)
        self.rd_pieces = lpm.split_field(self.rd, self.rd_sp)

    def argv(self, which: str) -> list[str]:
        if which == "saddle1":
            s, eps, grid = self.SADDLE, self.eps_saddle, self.scale.saddle_grid
            model = ["--model", "saddle1"]
        else:
            s, eps, grid = self.RD, self.eps_rd, self.RD["grid"]
            model = ["--model", "rd",
                     "--lambda-param", repr(s["lambda_param"]),
                     "--modes", str(s["modes"])]
        return (["manifold", *model, "--eps", repr(eps), "--grid", str(grid),
                 "--lam", repr(s["lam"]), "--t-max", repr(s["t_max"]),
                 "--dt", repr(s["dt"]), "--tol", repr(s["tol"]),
                 "--out", "-"])

    def round(self, res: RoundResult) -> None:
        solves, busy = 0, 0.0
        for which in ("saddle1", "rd"):
            buf = io.StringIO()
            res.attempted += 1
            mark = res.clock.clock()
            with contextlib.redirect_stdout(buf):
                code = cli.main(self.argv(which))
            elapsed = res.clock.elapsed(mark)
            rows = _parse_csv(buf.getvalue())
            bad = [r for r in rows if r["status"] != "ok"]
            if code != 0 or not rows or bad:
                res.failed += 1
                res.failures.append(f"lpman manifold {which}: exit {code}, "
                                    f"{len(bad)} failed samples")
                continue
            res.time(f"graph_s.{which}", elapsed)
            # one lp_solve per sample plus one per invariance re-solve
            solves += len(rows) + sum(
                1 for r in rows if math.isfinite(r["invariance_residual"]))
            busy += elapsed
            res.outputs[which] = rows
        if busy > 0 and len(res.outputs) == 2:
            res.time("solves_per_s", solves / busy)

    def check(self, res: RoundResult) -> list[Check]:
        out = []
        rows = res.outputs.get("saddle1", [])
        err = max((abs(r["h0"] - r["base0"] ** 2 / 3.0) for r in rows),
                  default=math.inf)
        out.append(Check("saddle1.analytic", err <= 1e-6,
                         f"max |h - x^2/3| = {err:.3e} (limit 1e-6)"))
        rows = res.outputs.get("rd", [])
        out.extend(self._rd_symmetries(rows))
        out.append(self._rd_oracle(rows))
        return out

    def _rd_modes(self):
        """Cosine mode of each base and graph coordinate, and how far the
        split basis is from a signed permutation."""
        B = self.rd_pieces.B
        modes = np.argmax(np.abs(B), axis=0)
        perm = np.eye(B.shape[0])[:, modes]
        perm_err = float(np.abs(np.abs(B) - perm).max())
        return modes, perm_err

    def _rd_symmetries(self, rows) -> list[Check]:
        names = ("rd.odd", "rd.shift_pi", "rd.constant_line")
        if not rows:
            return [Check(n, False, "no rd output") for n in names]
        modes, perm_err = self._rd_modes()
        d = self.rd_pieces.d_plus
        base = np.array([[r[f"base{i}"] for i in range(d)] for r in rows])
        h = np.array([[r[f"h{i}"] for i in range(self.rd_pieces.d_rest)]
                      for r in rows])
        # rounding-level tolerance relative to the largest graph value
        tol = 1e-9 * float(np.abs(h).max()) + 1e-20
        one = int(np.where(modes[:d] == 1)[0][0])   # base coord of mode k = 1
        parity = (-1.0) ** modes[d:]

        def partner(b):
            dist = np.abs(base - b).max(axis=1)
            j = int(np.argmin(dist))
            return j if dist[j] <= 1e-12 else None

        odd = shift = 0.0
        missing = 0
        for i in range(len(rows)):
            j = partner(-base[i])
            flip = base[i].copy()
            flip[one] = -flip[one]
            k = partner(flip)
            if j is None or k is None:
                missing += 1
                continue
            odd = max(odd, float(np.abs(h[j] + h[i]).max()))
            shift = max(shift, float(np.abs(h[k] - parity * h[i]).max()))
        line = [i for i in range(len(rows)) if base[i, one] == 0.0]
        zero = max((float(np.abs(h[i]).max()) for i in line), default=0.0)
        basis_ok = perm_err <= 1e-12 and missing == 0 and len(line) > 0
        return [
            Check(names[0], basis_ok and odd <= tol,
                  f"max |h(-b) + h(b)| = {odd:.1e} (limit {tol:.1e})"),
            Check(names[1], basis_ok and shift <= tol,
                  f"max |h_k(b0,-b1) - (-1)^k h_k(b)| = {shift:.1e} "
                  f"(limit {tol:.1e})"),
            Check(names[2], basis_ok and zero <= tol,
                  f"max |h| on b1 = 0 over {len(line)} samples = {zero:.1e} "
                  f"(limit {tol:.1e})"),
        ]

    def _rd_oracle(self, rows) -> Check:
        cand = [r for r in rows if r["base0"] != 0.0 and r["base1"] != 0.0]
        if not cand:
            return Check("rd.oracle", False, "no rd sample off the axes")
        row = cand[self.oracle_pick % len(cand)]
        b = np.array([row["base0"], row["base1"]])
        h_csv = np.array([row[f"h{i}"] for i in range(self.rd_pieces.d_rest)])
        cfg = lpm.LpConfig(lam=self.RD["lam"], T_max=self.RD["t_max"],
                           dt=self.RD["dt"], eps=self.eps_rd,
                           tol=self.RD["tol"])
        sol = lpm.lp_solve(self.rd_pieces, cfg, b)
        budget = sol.diagnostics["error_budget"]
        sh = oracles.backward_shoot(self.rd, self.rd_sp, b, T=self.SHOOT_T,
                                    tol=1e-11)
        diff = float(np.abs(h_csv - sh.matched_value).max())
        limit = 10.0 * (budget + sh.match_residual + 1e-8)
        return Check("rd.oracle", diff <= limit,
                     f"b = ({b[0]:.4g}, {b[1]:.4g}): |h - shoot| = {diff:.2e} "
                     f"(limit {limit:.2e})")


def _parse_csv(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if "," in ln]
    if not lines:
        return []
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        vals = ln.split(",")
        if len(vals) != len(header):
            continue
        row = {}
        for k, v in zip(header, vals):
            row[k] = v if k == "status" else float(v)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# mmt_scaling: MMT truncations at 7, 17 and 33 modes, plus the 63-mode probe

class MmtScaling:
    name = "mmt_scaling"
    SIZES = (7, 17, 33)
    PROBE_SIZE = 63
    SMALL_JOB, LARGE_JOB = "solve_s.mmt7", "solve_s.mmt33"
    # the solves of one round, by size: the short 7-mode solve is repeated
    # at several base points, spread over the round, so that its median
    # rests on samples taken at different moments of the run
    ORDER = (7, 7, 17, 7, 33, 7, 7)
    GAP = 0.5
    BASE_NORM = 0.03
    # address-space headroom of the probe: above what the 33-mode solve
    # allocates, below one (nodes x terms) temporary of the 63-mode cubic
    PROBE_HEADROOM = int(2.5 * 2 ** 30)

    def __init__(self, seed: int, scale: Scale):
        rng = np.random.default_rng([seed, 2])
        self.scale = scale
        self.bases = {}
        for n in (*self.SIZES, self.PROBE_SIZE):
            ang = rng.uniform(0.0, 2.0 * math.pi,
                              max(1, self.ORDER.count(n)))
            self.bases[n] = [self.BASE_NORM * np.array([math.cos(a),
                                                        math.sin(a)])
                             for a in ang]

    def setup(self) -> None:
        self.cases = {}
        for n in (*self.SIZES, self.PROBE_SIZE):
            p = models.MmtParams(alpha=1.0, beta=0.0, sigma=-1, a=1.2, xi0=0,
                                 mode_set=models.mmt_mode_set(0, n // 2))
            model = lpm.mmt_galerkin(p)
            sp = lpm.eigen_split(model.jacobian(model.equilibrium), self.GAP)
            pieces = lpm.split_field(model, sp)
            omega = 0.5 * (sp.rest_max_re + sp.lambda_plus)
            # the probe keeps the benchmark's grid, so that it fails at the
            # same allocation in the smoke run too
            dt = 0.005 if n == self.PROBE_SIZE else self.scale.mmt_dt
            cfg = lpm.LpConfig(lam=0.8 * sp.lambda_plus,
                               T_max=12.0 / sp.lambda_plus,
                               dt=dt, eps=0.05, tol=1e-9)
            case = {"params": p, "model": model, "sp": sp, "pieces": pieces,
                    "omega": omega, "cfg": cfg}
            if n != self.PROBE_SIZE:
                form = lpm.lyapunov_form(pieces.A_rest, omega)
                case["form"] = form
                case["dissipativity"] = lpm.dissipativity_check(
                    form, pieces.A_rest, omega)
            self.cases[n] = case

    def round(self, res: RoundResult) -> None:
        solves, busy = 0, 0.0
        for n in self.SIZES:
            res.outputs[n] = []
        for i, n in enumerate(self.ORDER):
            c = self.cases[n]
            base = self.bases[n][self.ORDER[:i].count(n)]
            done = _attempt(res, f"mmt{n} lp_solve", lpm.lp_solve,
                            c["pieces"], c["cfg"], base)
            if done is None:
                continue
            sol, elapsed = done
            res.time(f"solve_s.mmt{n}", elapsed)
            res.outputs[n].append(sol)
            solves += 1
            busy += elapsed
        if solves:
            res.time("solves_per_s", solves / busy)
        self._probe(res)

    def _probe(self, res: RoundResult) -> None:
        """The 63-mode solve and Lyapunov form under an address-space cap."""
        c = self.cases[self.PROBE_SIZE]
        base = self.bases[self.PROBE_SIZE][0]
        ops = (("lp_solve",
                lambda: lpm.lp_solve(c["pieces"], c["cfg"], base)),
               ("lyapunov_form",
                lambda: lpm.lyapunov_form(c["pieces"].A_rest, c["omega"])))
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        cap = _address_space_bytes() + self.PROBE_HEADROOM
        if hard != resource.RLIM_INFINITY:
            cap = min(cap, hard)
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
        try:
            for name, op in ops:
                res.attempted += 1
                try:
                    op()
                except (MemoryError, ValueError) as exc:
                    res.failed += 1
                    msg = str(exc).splitlines()[0][:90]
                    res.failures.append(
                        f"mmt{self.PROBE_SIZE} {name}: {type(exc).__name__}: "
                        f"{msg}")
        finally:
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

    def check(self, res: RoundResult) -> list[Check]:
        out = []
        for n in self.SIZES:
            c = self.cases[n]
            sols = res.outputs.get(n)
            if not sols:
                out.append(Check(f"mmt{n}.solve", False, "no solve output"))
                continue
            out.append(self._spectrum(n, c))
            out.append(self._lyapunov(n, c))
            for i, sol in enumerate(sols):
                tag = f"mmt{n}" + (f"[{i}]" if len(sols) > 1 else "")
                out.append(self._jacobian(tag, c, sol))
                out.append(self._energy(tag, c, sol))
                out.append(self._decay(tag, c, sol))
        return out

    def _spectrum(self, n, c) -> Check:
        p, sp = c["params"], c["sp"]
        count = 0
        for xi in p.mode_set:
            partner = 2 * p.xi0 - xi
            if xi == p.xi0 or xi > partner:
                continue   # the carrier, or a pair already counted
            blk = models.mmt_block(p, xi)
            roots = oracles.quartic_roots(blk.c_plus, blk.c_minus, blk.c)
            count += int(np.sum(roots.real > self.GAP))
        return Check(f"mmt{n}.spectrum", count == sp.dim_plus,
                     f"dim_plus {sp.dim_plus}, quartic roots with Re > gap "
                     f"{count}")

    def _jacobian(self, tag, c, sol) -> Check:
        model = c["model"]
        u = sol.orbit.states[-1]
        J = model.jacobian(u)
        J_fd = oracles.finite_difference_jacobian(model.vector_field, u)
        rel = float(np.linalg.norm(J - J_fd) / np.linalg.norm(J))
        return Check(f"{tag}.jacobian", rel <= 1e-7,
                     f"||J - J_fd|| / ||J|| = {rel:.1e} (limit 1e-7)")

    def _energy(self, tag, c, sol) -> Check:
        """|E(u_j) - E(u_0)| <= 10 (t_j - t_0) max|F| R, R the trajectory
        residual; |grad E| = |F| since F = J grad E with J orthogonal."""
        model = c["model"]
        states, times = sol.orbit.states, sol.orbit.times
        idx = np.unique(np.linspace(0, len(times) - 1, 41).astype(int))
        E = np.array([model.energy(states[j]) for j in idx])
        drift = np.abs(E - E[0])
        fmax = float(np.linalg.norm(model.field_many(states), axis=1).max())
        R = sol.diagnostics["trajectory_residual"]
        limit = 10.0 * (times[idx] - times[0]) * fmax * R + 1e-13 * abs(E[0])
        # the Hamiltonian identity the bound rests on: |grad E| = |F|
        u = states[-1]
        grad = oracles.finite_difference_jacobian(
            lambda v: np.array([model.energy(v)]), u)[0]
        F = model.vector_field(u)
        f_norm = np.linalg.norm(F)
        ident = abs(np.linalg.norm(grad) - f_norm) / f_norm
        ok = bool(np.all(drift <= limit)) and ident <= 1e-6
        return Check(f"{tag}.energy", ok,
                     f"max drift {drift.max():.1e} (limit {limit.max():.1e}), "
                     f"| |grad E| - |F| | / |F| = {ident:.1e}")

    def _decay(self, tag, c, sol) -> Check:
        sp, model = c["sp"], c["model"]
        dev = lpm.OrbitGrid(sol.orbit.times,
                            sol.orbit.states - model.equilibrium)
        lam_fit, r2 = lpm.decay_rate_fit(dev, model.ladder, c["cfg"].r)
        pad = 0.05 * sp.realized_gap
        lo, hi = sp.rest_max_re + pad, sp.lambda_plus_max + pad
        ok = lo <= lam_fit <= hi and r2 > 0.99
        return Check(f"{tag}.decay", ok,
                     f"fit {lam_fit:.4f} in [{lo:.4f}, {hi:.4f}], "
                     f"R^2 = {r2:.5f}")

    def _lyapunov(self, n, c) -> Check:
        A, L, om = c["pieces"].A_rest, c["form"].L, c["omega"]
        resid = float(np.linalg.norm(A.T @ L + L @ A - 2 * om * L
                                     + np.eye(A.shape[0])))
        diss = c["dissipativity"]
        return Check(f"mmt{n}.lyapunov", resid <= 1e-10 and diss <= 0.0,
                     f"||A'L + LA - 2wL + I|| = {resid:.1e} (limit 1e-10), "
                     f"dissipativity {diss:.3e}")


def _address_space_bytes() -> int:
    """Current virtual size of this process (VmSize), in bytes."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmSize:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("VmSize not found in /proc/self/status")


# ---------------------------------------------------------------------------
# quasilinear: the quasilinear route and Picard on the coupled saddle

def coupled_saddle():
    """x' = x + y^2, y' = -y + x^2."""

    def F(u):
        x, y = u
        return np.array([x + y * y, -y + x * x])

    def jac(u):
        x, y = u
        return np.array([[1.0, 2.0 * y], [2.0 * x, -1.0]])

    return models.custom_model("coupled", F, jac, np.zeros(2))


class Quasilinear:
    name = "quasilinear"
    SMALL_JOB, LARGE_JOB = "picard_s", "solve_s.quasi"
    BASE_RANGE = (0.04, 0.08)
    PICARD_T, PICARD_DT = 1.0, 2.5e-4
    SHOOT_T = 20.0

    def __init__(self, seed: int, scale: Scale):
        rng = np.random.default_rng([seed, 3])
        self.scale = scale
        # one base point near the centre of each equal stratum of
        # BASE_RANGE, moved by the seed within a tenth of the stratum width
        k = scale.quasi_points
        lo, hi = self.BASE_RANGE
        width = (hi - lo) / k
        self.bases = [lo + width * (i + 0.5 + rng.uniform(-0.1, 0.1))
                      for i in range(k)]
        self.picard_starts = []
        for _ in range(scale.picard_points):
            amp, ang = rng.uniform(0.05, 0.1), rng.uniform(0.0, 2 * math.pi)
            self.picard_starts.append(amp * np.array([math.cos(ang),
                                                      math.sin(ang)]))
        self.cfg = lpm.LpConfig(lam=0.9, T_max=20.0, dt=0.01, eps=0.15,
                                tol=1e-11)

    def setup(self) -> None:
        self.model = coupled_saddle()
        self.sp = lpm.eigen_split(self.model.jacobian(self.model.equilibrium),
                                  0.5)
        self.pieces = lpm.split_field(self.model, self.sp)
        self.q = lpm.quasilinearize(self.model, self.sp, omega_plus=1.0,
                                    omega_minus=-1.0)

    def round(self, res: RoundResult) -> None:
        res.outputs["quasi"], res.outputs["picard"] = [], []
        busy = 0.0
        # Picard solves go between the quasilinear solves, so that their
        # samples spread over the round
        picards = iter(self.picard_starts)
        for b in self.bases:
            self._picard_solve(res, next(picards, None))
            done = _attempt(res, f"quasilinear lp_solve b={b:.4f}",
                            lpm.lp_solve, self.q.pieces, self.cfg,
                            np.array([b]))
            if done is None:
                continue
            sol, elapsed = done
            res.time("solve_s.quasi", elapsed)
            res.outputs["quasi"].append(sol)
            busy += elapsed
        for v0 in picards:
            self._picard_solve(res, v0)
        if res.outputs["quasi"]:
            res.time("solves_per_s", len(res.outputs["quasi"]) / busy)

    def _picard_solve(self, res: RoundResult, v0) -> None:
        if v0 is None:
            return
        done = _attempt(res, "picard_solve", lpm.picard_solve, self.model, v0,
                        self.PICARD_T, self.PICARD_DT, tol=1e-11)
        if done is not None:
            (orbit, _), elapsed = done
            res.time("picard_s", elapsed)
            res.outputs["picard"].append((v0, orbit))

    def check(self, res: RoundResult) -> list[Check]:
        out = []
        for i, sol in enumerate(res.outputs.get("quasi", [])):
            out.extend(self._routes(i, sol))
        for i, (v0, orbit) in enumerate(res.outputs.get("picard", [])):
            out.append(self._picard(i, v0, orbit))
        return out

    def _routes(self, i, sol) -> list[Check]:
        q = self.q
        v_pt = q.pieces.B @ np.concatenate([sol.base_point, sol.h_value])
        u_pt = q.invert_B(v_pt)
        direct = lpm.lp_solve(self.pieces, self.cfg, np.array([u_pt[0]]))
        b_q = sol.diagnostics["error_budget"]
        b_d = direct.diagnostics["error_budget"]
        diff = abs(u_pt[1] - direct.h_value[0])
        limit = 10.0 * (b_q + b_d)
        sh = oracles.backward_shoot(self.model, self.sp, np.array([u_pt[0]]),
                            T=self.SHOOT_T, tol=1e-11)
        diff_o = abs(u_pt[1] - sh.matched_value[0])
        limit_o = 10.0 * (b_q + sh.match_residual + 1e-8)
        return [
            Check(f"quasi{i}.routes", diff <= limit,
                  f"b = {sol.base_point[0]:.4f}: |quasi - direct| = "
                  f"{diff:.2e} (limit {limit:.2e})"),
            Check(f"quasi{i}.oracle", diff_o <= limit_o,
                  f"|quasi - shoot| = {diff_o:.2e} (limit {limit_o:.2e})"),
        ]

    def _picard(self, i, v0, orbit) -> Check:
        ref = scipy.integrate.solve_ivp(
            lambda t, y: self.model.vector_field(y), (0.0, self.PICARD_T), v0,
            method="DOP853", rtol=1e-12, atol=1e-14)
        diff = float(np.linalg.norm(orbit.states[-1] - ref.y[:, -1]))
        ok = ref.success and diff <= 1e-8
        return Check(f"picard{i}.solve_ivp", ok,
                     f"|v(T) - solve_ivp| = {diff:.1e} (limit 1e-8)")


WORKLOADS = {w.name: w for w in (GraphSweep, MmtScaling, Quasilinear)}
