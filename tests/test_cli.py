import dataclasses
import math

import numpy as np
import pytest

from lpmanifolds import cli, verify
from lpmanifolds.cli import default_gap, main
from lpmanifolds.linalg import AmbiguousSplitError, eigen_split, picard_solve
from lpmanifolds.models import MmtParams, mmt_galerkin, mmt_mode_set, saddle_toy
from lpmanifolds.oracles import reference_flow


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_split_saddle1(capsys):
    code, out, _ = run_cli(capsys, "split", "--model", "saddle1")
    assert code == 0
    assert "dim_plus=1" in out and "dim_minus=1" in out
    assert "lambda_plus=1" in out
    lines = out.strip().splitlines()
    assert "re,im,block" in lines


def test_split_rd_two_unstable(capsys):
    code, out, _ = run_cli(capsys, "split", "--model", "rd",
                           "--lambda-param", "2", "--modes", "5")
    assert code == 0
    assert "dim_plus=2" in out


def test_split_mmt_block_structure(capsys):
    code, out, _ = run_cli(capsys, "split", "--model", "mmt", "--xi0", "2",
                           "--a", "1", "--alpha", "1", "--beta", "1",
                           "--half-width", "2", "--gap", "0.5")
    assert code == 0
    assert "dim_center=" in out


def test_manifold_saddle1_csv(capsys, tmp_path):
    out_path = tmp_path / "g.csv"
    code, out, _ = run_cli(capsys, "manifold", "--model", "saddle1",
                           "--eps", "0.1", "--grid", "21", "--dt", "0.005",
                           "--lam", "0.9", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("base0,h0,lambda_fit")
    assert len(lines) == 22
    for row in lines[1:]:
        cells = row.split(",")
        x, h = float(cells[0]), float(cells[1])
        assert abs(h - x * x / 3.0) <= 1e-6
        assert cells[-1] == "ok"


def test_manifold_stable_side(capsys, tmp_path):
    out_path = tmp_path / "g.csv"
    code, _, _ = run_cli(capsys, "manifold", "--model", "saddle2",
                         "--side", "stable", "--eps", "0.2", "--grid", "9",
                         "--dt", "0.005", "--lam", "0.9",
                         "--out", str(out_path))
    assert code == 0
    for row in out_path.read_text().splitlines()[1:]:
        cells = row.split(",")
        y, h = float(cells[0]), float(cells[1])
        assert abs(h - (-y * y / 4.0)) <= 1e-6


def test_manifold_deterministic_output(capsys, tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["manifold", "--model", "rd", "--lambda-param", "0.5",
            "--modes", "5", "--eps", "0.05", "--grid", "5", "--dt", "0.02",
            "--seed", "1"]
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_manifold_summary_reports_graph_diagnostics(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "manifold", "--model", "saddle1",
                           "--eps", "0.1", "--grid", "9", "--dt", "0.005",
                           "--lam", "0.9", "--out", str(tmp_path / "g.csv"))
    assert code == 0
    fields = dict(kv.split("=") for kv in out.split())
    # the exact graph is x^2/3: ||h||/||v|| = |x|/3 has slope 1/3
    assert abs(float(fields["tangency_slope"]) - 1.0 / 3.0) <= 1e-3
    assert 0.0 < float(fields["lipschitz_low"]) < 1.0


@pytest.mark.parametrize("half_width", [3, 8])
def test_default_gap_ignores_roundoff_split_of_jordan_block(half_width):
    # the plane-wave Jacobian has a Jordan block at 0 (phase symmetry); a
    # 1e-16 perturbation splits it by ~1e-8, which is not a growth rate
    p = MmtParams(alpha=1.0, beta=0.0, sigma=-1, a=1.2, xi0=0,
                  mode_set=mmt_mode_set(0, half_width))
    model = mmt_galerkin(p)
    A = model.jacobian(model.equilibrium)
    gap = default_gap(A)
    dim_plus = eigen_split(A, gap).dim_plus
    assert dim_plus == 2
    for seed in range(5):
        Ap = A + 1e-16 * np.random.default_rng(seed).normal(size=A.shape)
        gap_p = default_gap(Ap)
        assert gap_p == pytest.approx(gap, rel=1e-9)
        assert eigen_split(Ap, gap_p).dim_plus == dim_plus


def _jacobian_counted(build, calls):
    """build, with the Jacobian of the model it returns recording each call
    at the equilibrium in calls."""
    def counted(*args):
        model = build(*args)

        def jac(u):
            if np.array_equal(u, model.equilibrium):
                calls.append(1)
            return model.jacobian(u)
        return dataclasses.replace(model, jacobian=jac)
    return counted


@pytest.mark.parametrize("builder, argv", [
    ("reaction_diffusion", ["--model", "rd", "--lambda-param", "2",
                            "--modes", "6", "--grid", "5"]),
    ("mmt_galerkin", ["--model", "mmt", "--half-width", "3", "--grid", "3"]),
], ids=["rd", "mmt"])
def test_manifold_takes_the_jacobian_at_the_equilibrium_twice(
        capsys, monkeypatch, builder, argv):
    # once for the gap and the splitting, once in split_field; the sweeps
    # and the invariance check read split_field's
    calls = []
    monkeypatch.setattr(cli, builder,
                        _jacobian_counted(getattr(cli, builder), calls))
    assert main(["manifold", *argv]) == 0
    capsys.readouterr()
    assert 0 < len(calls) <= 2


# the flags of the model, splitting and sampling that a subcommand does not
# read
UNREAD_FLAGS = {
    "split": ["--seed", "--plot-out"],
    "mmt-scan": ["--model", "--gap", "--lambda-param", "--modes",
                 "--half-width", "--seed", "--plot-out"],
    "picard": ["--gap", "--seed", "--plot-out"],
}


@pytest.mark.parametrize("cmd, flag", [(cmd, flag) for cmd, flags
                                       in UNREAD_FLAGS.items()
                                       for flag in flags])
def test_subcommands_refuse_flags_they_do_not_read(capsys, cmd, flag):
    model = [] if cmd == "mmt-scan" else ["--model", "saddle1"]
    with pytest.raises(SystemExit) as exc:
        main([cmd, *model, flag, "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_mmt_scan_csv(capsys, tmp_path):
    out_path = tmp_path / "scan.csv"
    code, out, _ = run_cli(capsys, "mmt-scan", "--alpha", "1", "--beta", "0",
                           "--sigma", "-1", "--a", "1.2", "--xi0", "0",
                           "--xi-min", "-3", "--xi-max", "3",
                           "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "xi,partner,discriminant,flagged,max_re,confirmed"
    flagged = [r for r in lines[1:] if r.split(",")[3] == "1"]
    assert flagged
    for r in flagged:
        assert r.split(",")[5] == "1"


def test_waterwave_kh_threshold(capsys):
    code, out, _ = run_cli(capsys, "waterwave", "kh", "--rho-minus", "2",
                           "--rho-plus", "1", "--g", "1", "--sigma", "1",
                           "--b", "2")
    assert code == 0
    assert "kh_bound=0" in out


def test_waterwave_froude(capsys):
    code, out, _ = run_cli(capsys, "waterwave", "froude", "--g", "1",
                           "--h0", "1", "--c", "0.5", "--sigma", "1")
    assert code == 0
    assert "F=0.5" in out and "B=1" in out and "coercive=True" in out


def test_waterwave_symbol(capsys):
    code, out, _ = run_cli(capsys, "waterwave", "symbol", "--h0", "1",
                           "--k-min", "0.1", "--k-max", "10", "--n-k", "5")
    assert code == 0
    assert out.splitlines()[0] == "k,symbol"


def test_picard_runs(capsys):
    code, out, _ = run_cli(capsys, "picard", "--model", "saddle1",
                           "--x0", "0.1", "--t-final", "0.5", "--dt", "1e-3")
    assert code == 0
    assert "contraction_factor=" in out
    # the front end, not picard_solve, compares v(T) with the oracle
    model = saddle_toy("saddle1")
    v0 = model.equilibrium.copy()
    v0[0] += 0.1
    orbit, _ = picard_solve(model, v0, 0.5, 1e-3, tol=1e-10)
    ref = reference_flow(model.vector_field, v0, 0.0, 0.5)
    discrepancy = float(np.linalg.norm(orbit.states[-1] - ref))
    assert out.split("reference_discrepancy=")[1] == (
        format(discrepancy, ".17g") + "\n")


def test_picard_converged_after_a_growing_sweep_exits_zero(capsys, tmp_path):
    # the second increment is larger than the first, yet the sweeps reach
    # tol; convergence is the rule, not the largest increment ratio
    out_path = tmp_path / "p.csv"
    code, out, err = run_cli(capsys, "picard", "--model", "saddle1",
                             "--x0", "0.8", "--t-final", "2",
                             "--out", str(out_path))
    assert (code, err) == (0, "")
    assert "iterations=3 " in out
    factor = float(out.split("contraction_factor=")[1].split()[0])
    assert factor > 1.0
    assert len(out_path.read_text().splitlines()) == 2002


@pytest.mark.parametrize("argv", [
    ["--model", "saddle1", "--grid", "0"],
    ["--model", "rd", "--lambda-param", "2", "--modes", "6", "--grid", "1"],
    ["--model", "rd", "--lambda-param", "2", "--modes", "6", "--grid", "2"],
], ids=["saddle1-grid0", "rd-grid1", "rd-grid2"])
def test_manifold_grid_without_base_points_is_refused(capsys, argv):
    # no sample was tried: a validation error, not a numerical failure
    code, out, err = run_cli(capsys, "manifold", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: no base point to sample")
    assert "--grid" in err and "eps" in err


def test_unknown_model_exit_code(capsys):
    code, _, err = run_cli(capsys, "split", "--model", "nope")
    assert code == 1
    assert "unknown model" in err


def test_numerical_failure_exit_code(capsys):
    # lambda far outside the gap triggers a validation error (exit 1)
    code, _, err = run_cli(capsys, "manifold", "--model", "saddle1",
                           "--lam", "5.0", "--eps", "0.1")
    assert code == 1


@pytest.mark.parametrize("exc, code, prefix", [
    (np.linalg.LinAlgError("Singular matrix"), 2, "numerical failure: "),
    (FloatingPointError("orbit states contain non-finite entries"), 2,
     "numerical failure: "),
    (AmbiguousSplitError("eigenvalue in band"), 1, "error: "),
    (ValueError("bad input"), 1, "error: "),
], ids=["LinAlgError", "FloatingPointError", "AmbiguousSplitError",
        "ValueError"])
def test_exit_code_by_exception_type(capsys, monkeypatch, exc, code, prefix):
    # LinAlgError subclasses ValueError but is a numerical failure, as is a
    # non-finite orbit
    def fails(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "picard_solve", fails)
    got, _, err = run_cli(capsys, "picard", "--model", "saddle1")
    assert got == code
    assert err == f"{prefix}{exc}\n"


def test_config_file_and_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model=saddle1\neps=0.1\ngrid=5\ndt=0.005\nlam=0.9\n")
    p1 = tmp_path / "a.csv"
    code, _, _ = run_cli(capsys, "manifold", "--config", str(cfg),
                         "--out", str(p1))
    assert code == 0
    assert len(p1.read_text().splitlines()) == 6
    # flag overrides file value
    p2 = tmp_path / "b.csv"
    code, _, _ = run_cli(capsys, "manifold", "--config", str(cfg),
                         "--grid", "3", "--out", str(p2))
    assert code == 0
    assert len(p2.read_text().splitlines()) == 4


@pytest.mark.parametrize("flag, value, message", [
    ("--max-iter", "0", "max_iter must be at least 1, got 0"),
    ("--max-iter", "-3", "max_iter must be at least 1, got -3"),
    ("--tol", "-1", "tol must be non-negative, got -1.0"),
], ids=["0", "-3", "tol-1"])
def test_manifold_refuses_max_iter_below_one(capsys, flag, value, message):
    # without a sweep every sample would report h = 0 as converged; below
    # tol = 0 every sample would fail as a numerical failure
    code, out, err = run_cli(capsys, "manifold", "--model", "saddle1",
                             "--grid", "5", flag, value)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["--dt", "0"], ["--dt", "-0.001"], ["--tol", "-1"],
], ids=["dt0", "dt-negative", "tol-1"])
def test_picard_refuses_bad_step_and_tol(capsys, argv):
    code, out, err = run_cli(capsys, "picard", "--model", "saddle1", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_consecutive_mains_do_not_share_values(capsys, tmp_path):
    # main builds its parser once; each call still parses its own flags and
    # reads its own config file
    c1 = tmp_path / "one.cfg"
    c1.write_text("model=saddle1\neps=0.1\ngrid=3\ndt=0.005\nlam=0.9\n")
    c2 = tmp_path / "two.cfg"
    c2.write_text("model=rd\nmodes=5\nlambda_param=2\n")
    p1 = tmp_path / "a.csv"
    code, _, _ = run_cli(capsys, "manifold", "--config", str(c1),
                         "--grid", "4", "--out", str(p1))
    assert code == 0
    assert len(p1.read_text().splitlines()) == 5
    code, out, _ = run_cli(capsys, "split", "--config", str(c2))
    assert code == 0
    assert "dim_plus=2" in out
    # nothing of the first call is left: its grid flag and file are gone
    p2 = tmp_path / "b.csv"
    code, _, _ = run_cli(capsys, "manifold", "--config", str(c1),
                         "--out", str(p2))
    assert code == 0
    assert len(p2.read_text().splitlines()) == 4
    code, out, _ = run_cli(capsys, "split", "--model", "saddle1")
    assert code == 0
    assert "dim_plus=1" in out


def test_csv_seventeen_digits(capsys, tmp_path):
    out_path = tmp_path / "g.csv"
    run_cli(capsys, "manifold", "--model", "saddle1", "--eps", "0.1",
            "--grid", "3", "--dt", "0.005", "--lam", "0.9",
            "--out", str(out_path))
    text = out_path.read_text()
    assert "0.10000000000000001" in text   # 17 significant digits of 0.1


def test_verify_quick_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "quick")
    assert code == 0
    names = [n for n, _ in verify.CHECKS]
    assert verify.QUICK <= set(names)
    lines = out.splitlines()
    assert all(line.startswith("PASS ") for line in lines)
    assert ([line[len("PASS "):].split(":")[0] for line in lines]
            == [n for n in names if n in verify.QUICK])


def test_verify_reports_a_raising_check(capsys, monkeypatch):
    def raises():
        raise KeyError("x")

    monkeypatch.setattr(verify, "CHECKS", [
        ("fine", lambda: (True, "ok")),
        ("raises", raises),
        ("fails", lambda: (False, "off by one")),
    ])
    code, out, _ = run_cli(capsys, "verify")
    assert code == 2
    assert out.splitlines() == [
        "PASS fine: ok",
        "FAIL raises: exception: KeyError: 'x'",
        "FAIL fails: off by one",
        "first failing invariant: raises",
    ]


def test_verify_unknown_suite_in_config_file(capsys, tmp_path):
    cfg = tmp_path / "v.cfg"
    cfg.write_text("suite = quik\n")
    code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 1
    assert "unknown suite 'quik'" in err and out == ""
