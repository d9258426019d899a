import argparse
import dataclasses
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import lpmanifolds
from lpmanifolds import cli, lp, verify
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
    err = capsys.readouterr().err
    # the subcommand's usage line, not the one that lists the subcommands
    assert err.startswith(f"usage: lpman {cmd} [-h]")
    assert err.endswith(f"lpman {cmd}: error: unrecognized arguments: "
                        f"{flag} 1\n")


# the flags each waterwave subcommand reads, besides --config and --out
TWO_FLUID = {"--sigma", "--g", "--rho-plus", "--rho-minus", "--nu-plus",
             "--nu-minus", "--h-plus", "--h-minus"}
WATERWAVE_FLAGS = {
    "symbol": {"--h0", "--k-min", "--k-max", "--n-k"},
    "froude": {"--sigma", "--g", "--h0", "--c", "--n-k"},
    "kh": TWO_FLUID | {"--b"},
    "scan": TWO_FLUID | {"--k-min", "--k-max", "--n-k", "--plot-out"},
}


def test_waterwave_subcommands_declare_the_flags_they_read():
    leaves = _subcommands()
    declared = {(sub, opt) for sub in WATERWAVE_FLAGS
                for action in leaves[f"waterwave {sub}"]._actions
                if action.dest != "help" for opt in action.option_strings}
    assert declared == {(sub, flag) for sub, flags in WATERWAVE_FLAGS.items()
                        for flag in flags | {"--config", "--out"}}
    assert len(declared) == 38


@pytest.mark.parametrize("sub, flag", [
    ("symbol", "--g"), ("froude", "--k-min"), ("kh", "--n-k"),
    ("scan", "--b"),
])
def test_waterwave_subcommand_refuses_a_flag_it_does_not_read(
        capsys, tmp_path, sub, flag):
    with pytest.raises(SystemExit) as exc:
        main(["waterwave", sub, flag, "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: lpman waterwave {sub} [-h]")
    assert "unrecognized arguments" in err
    key = flag[2:].replace("-", "_")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}=1\n")
    code, out, err = run_cli(capsys, "waterwave", sub, "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err == (f"error: unknown config key '{key}': waterwave {sub} has "
                   f"no {flag} flag\n")


def test_waterwave_flags_follow_the_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["waterwave", "--h0", "1", "symbol"])
    assert exc.value.code == 2
    capsys.readouterr()


# the flags each model reads, besides --model; split, manifold and picard
# declare all of them and refuse those of a model other than the chosen one
MODEL_FLAGS = {
    "saddle1": set(),
    "saddle2": set(),
    "rd": {"--lambda-param", "--modes"},
    "mmt": {"--alpha", "--beta", "--sigma", "--a", "--xi0", "--half-width"},
}
MODEL_COMMANDS = ("split", "manifold", "picard")
FOREIGN_FLAGS = [(cmd, model, flag) for cmd in MODEL_COMMANDS
                 for model in MODEL_FLAGS
                 for flag in sorted(set().union(*MODEL_FLAGS.values())
                                    - MODEL_FLAGS[model])]


def _model_flags(capsys, cmd):
    """model -> the long flags of cmd's parser that resolve accepts with
    --model model and refuses with some other model."""
    parser, actions = cli.make_parser(), _subcommands()[cmd]._actions
    accepted = {}
    for model in cli.MODELS:
        accepted[model] = set()
        for action in actions:
            if action.dest in ("help", "config"):
                continue
            flag = action.option_strings[-1]
            value = action.choices[0] if action.choices else "1"
            args = parser.parse_args([cmd, "--model", model, flag, value])
            try:
                cli.resolve(parser, args)
            except SystemExit:
                continue
            finally:
                capsys.readouterr()
            accepted[model].add(flag)
    common = set.intersection(*accepted.values())
    return {model: flags - common for model, flags in accepted.items()}


def test_models_accept_only_the_flags_they_read(capsys):
    accepted = {(cmd, model, flag) for cmd in MODEL_COMMANDS
                for model, flags in _model_flags(capsys, cmd).items()
                for flag in flags}
    assert accepted == {(cmd, model, flag) for cmd in MODEL_COMMANDS
                        for model, flags in MODEL_FLAGS.items()
                        for flag in flags}
    assert len(accepted) == 24
    assert len(FOREIGN_FLAGS) == 72
    # mmt-scan's mode set follows --xi-max, so it reads mmt's flags but
    # --half-width
    declared = {opt for action in _subcommands()["mmt-scan"]._actions
                if action.dest != "help" for opt in action.option_strings}
    assert declared == (MODEL_FLAGS["mmt"] - {"--half-width"}
                        | {"--xi-min", "--xi-max", "--config", "--out"})


@pytest.mark.parametrize("cmd, model, flag", FOREIGN_FLAGS,
                         ids=lambda x: x.lstrip("-"))
def test_model_refuses_a_flag_of_another_model(capsys, cmd, model, flag):
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--model", model, flag, "5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: lpman {cmd} [-h]")
    assert err.endswith(f"lpman {cmd}: error: model '{model}' has no {flag} "
                        f"flag\n")


@pytest.mark.parametrize("cmd, model, argv, flag", [
    ("split", "rd", ["--alp", "5"], "--alpha"),
    ("picard", "mmt", ["--lambda", "2"], "--lambda-param"),
    ("manifold", "saddle1", ["--half=2"], "--half-width"),
    ("split", "rd", ["--sigma", "-1"], "--sigma"),
    ("manifold", "saddle2", ["--modes", "5"], "--modes"),
    ("picard", "mmt", ["--lambda-param", "0.5"], "--lambda-param"),
], ids=["abbreviated-alpha", "abbreviated-lambda-param",
        "abbreviated-half-width", "default-sigma", "default-modes",
        "default-lambda-param"])
def test_model_refuses_a_foreign_flag_however_given(capsys, cmd, model, argv,
                                                    flag):
    # a flag once went unread without a word, abbreviated or at its default
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--model", model, *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: lpman {cmd} [-h]")
    assert err.endswith(f"error: model '{model}' has no {flag} flag\n")


def test_model_from_the_config_file_refuses_foreign_flags(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model=rd\n")
    with pytest.raises(SystemExit) as exc:
        main(["split", "--config", str(cfg), "--alpha", "5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: lpman split [-h]")
    assert err.endswith("error: model 'rd' has no --alpha flag\n")
    assert run_cli(capsys, "split", "--config", str(cfg), "--modes", "3")[0] \
        == 0


@pytest.mark.parametrize("argv, text, key, flag, model", [
    (["split"], "model=rd\nalpha=5\n", "alpha", "--alpha", "rd"),
    (["picard", "--model", "saddle1"], "half-width=2\n", "half_width",
     "--half-width", "saddle1"),
    (["manifold"], "modes=5\nmodel=mmt\n", "modes", "--modes", "mmt"),
], ids=["model-in-file", "model-on-line", "key-before-model"])
def test_model_refuses_a_config_key_of_another_model(capsys, tmp_path, argv,
                                                     text, key, flag, model):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err == (f"error: unknown config key '{key}': model '{model}' has "
                   f"no {flag} flag\n")


def test_model_flag_beats_the_model_in_the_config_file(capsys, tmp_path):
    # --model mmt reads the file's alpha, which rd would refuse
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model=rd\nalpha=2\n")
    code, from_file, _ = run_cli(capsys, "split", "--model", "mmt",
                                 "--config", str(cfg))
    assert code == 0
    assert run_cli(capsys, "split", "--model", "mmt", "--alpha", "2") == (
        0, from_file, "")


def _readme_flag_lists():
    """Name -> flags of each bullet of README's CLI section that lists a
    model's or a waterwave subcommand's flags."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return {m[1]: set(m[2].split()) if m[2] is not None else set()
            for m in re.finditer(r"^- `([\w-]+)`: (?:`([^`]*)`|no flags)",
                                 section, re.MULTILINE)}


def test_readme_flag_lists_match_the_parsers(capsys):
    leaves = _subcommands()
    wave = {sub: {opt for action in leaves[f"waterwave {sub}"]._actions
                  if action.dest not in ("help", "config", "out")
                  for opt in action.option_strings}
            for sub in WATERWAVE_FLAGS}
    for cmd in MODEL_COMMANDS:
        assert _readme_flag_lists() == {**_model_flags(capsys, cmd), **wave}


@pytest.mark.parametrize("argv, message", [
    (["scan", "--n-k", "0"], "n_k must be at least 1, got 0"),
    (["froude", "--h0", "1", "--n-k", "-2"], "n_k must be at least 1, got -2"),
    (["symbol", "--k-min", "0"],
     "k_min must be a positive finite number, got 0.0"),
    (["scan", "--k-max", "nan"],
     "k_max must be a positive finite number, got nan"),
    (["symbol", "--k-min", "5", "--k-max", "1"],
     "k_min must not exceed k_max, got 5.0 > 1.0"),
    (["symbol", "--h0", "-1"], "depth must be positive (math.inf allowed)"),
    (["kh", "--b", "-1"], "b must be a non-negative finite number, got -1.0"),
    (["kh", "--b", "inf"], "b must be a non-negative finite number, got inf"),
], ids=["scan-n-k0", "froude-n-k-2", "symbol-k-min0", "scan-k-max-nan",
        "symbol-k-min-above-k-max", "symbol-h0-1", "kh-b-1", "kh-b-inf"])
def test_waterwave_refuses_bad_grid_before_any_output(capsys, argv, message):
    # scan --n-k 0 once wrote its CSV header before failing on an empty
    # min(), and --k-min 0 or --b -1 reported a math domain error
    code, out, err = run_cli(capsys, "waterwave", *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


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


def test_waterwave_froude_runs_at_its_defaults(capsys):
    # froude_bond refuses infinite depth, so froude's --h0 defaults to 1;
    # symbol's stays inf
    code, out, err = run_cli(capsys, "waterwave", "froude")
    assert (code, err) == (0, "")
    assert run_cli(capsys, "waterwave", "froude", "--h0", "1") == (0, out, "")
    assert _help_defaults("waterwave symbol")["--h0"] == "inf"


def _csv_rows(path):
    header, *rows = path.read_text().splitlines()
    return header.split(","), [row.split(",") for row in rows]


@pytest.mark.parametrize("max_iter, n_ok", [("60", 5), ("1", 1)])
def test_manifold_plot_out_holds_the_ok_samples(capsys, tmp_path, max_iter,
                                                n_ok):
    # one sweep reaches the fixed point only at the base point 0
    out, plot = tmp_path / "g.csv", tmp_path / "g.dat"
    code, _, _ = run_cli(capsys, "manifold", "--model", "saddle1", "--grid",
                         "5", "--max-iter", max_iter, "--out", str(out),
                         "--plot-out", str(plot))
    assert code == 0
    header, rows = _csv_rows(out)
    cols = [i for i, name in enumerate(header)
            if re.fullmatch(r"(base|h)\d+", name)]
    assert [header[i] for i in cols] == ["base0", "h0"]
    ok = [" ".join(row[i] for i in cols) for row in rows if row[-1] == "ok"]
    assert len(ok) == n_ok and len(rows) == 5
    assert plot.read_text().splitlines() == ok


def test_waterwave_scan_plot_out_holds_every_row(capsys, tmp_path):
    out, plot = tmp_path / "s.csv", tmp_path / "s.dat"
    code, _, _ = run_cli(capsys, "waterwave", "scan", "--n-k", "7", "--out",
                         str(out), "--plot-out", str(plot))
    assert code == 0
    header, rows = _csv_rows(out)
    assert header == ["k", "multiplier"] and len(rows) == 7
    assert plot.read_text().splitlines() == [" ".join(row) for row in rows]


def test_module_entry_point_prints_what_main_prints(capsys):
    _, out, _ = run_cli(capsys, "split", "--model", "saddle1")
    src = pathlib.Path(lpmanifolds.__file__).parents[1]
    path = os.pathsep.join(filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "lpmanifolds.cli", "split", "--model",
         "saddle1"], capture_output=True, env={**os.environ,
                                              "PYTHONPATH": path})
    assert (run.returncode, run.stderr) == (0, b"")
    assert run.stdout == out.encode()


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


def test_mmt_scan_scans_one_mode_when_xi_min_is_xi_max(capsys):
    # only an xi_min above xi_max is refused (test_refusals_print_one_line)
    code, out, _ = run_cli(capsys, "mmt-scan", "--xi-min", "2", "--xi-max", "2")
    assert code == 0
    assert len(out.splitlines()) == 2


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
    (MemoryError("Unable to allocate 7.28 TiB for an array"), 1,
     "error: out of memory: "),
    (MemoryError(), 1, "error: out of memory"),
], ids=["LinAlgError", "FloatingPointError", "AmbiguousSplitError",
        "ValueError", "MemoryError", "MemoryError-no-message"])
def test_exit_code_by_exception_type(capsys, monkeypatch, exc, code, prefix):
    # LinAlgError subclasses ValueError but is a numerical failure, as is a
    # non-finite orbit; a MemoryError (a grid too large for memory) is an
    # input error, one line and no traceback
    def fails(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "picard_solve", fails)
    got, _, err = run_cli(capsys, "picard", "--model", "saddle1")
    assert got == code
    assert err == f"{prefix}{exc}\n"


@pytest.mark.parametrize("argv, code, message", [
    (["manifold", "--grid", "3"], 1, "error: --model is required"),
    (["manifold", "--model", "mmt", "--half-width", "0"], 1,
     "error: no unstable directions at this gap"),
    (["manifold", "--model", "saddle1", "--grid", "4", "--max-iter", "1"], 2,
     "numerical failure: empty manifold graph: every sample failed"),
    (["manifold", "--model", "saddle1", "--dt", "1", "--t-max", "0.5"], 1,
     "error: need 0 < dt < T_max"),
    (["split", "--model", "mmt", "--sigma", "2"], 1,
     "error: sigma must be +1 or -1"),
    (["split", "--model", "mmt", "--beta", "2"], 1,
     "error: beta must satisfy beta <= alpha"),
    (["split", "--model", "mmt", "--alpha", "0"], 1,
     "error: alpha must be positive"),
    (["split", "--model", "nope"], 1,
     "error: unknown model 'nope' (choose from saddle1, saddle2, rd, mmt)"),
    # an empty range once printed a header-only CSV and exited 0
    (["mmt-scan", "--xi-min", "5", "--xi-max", "2"], 1,
     "error: xi_min must not exceed xi_max, got 5 > 2"),
], ids=["no-model", "no-unstable", "all-samples-fail", "dt-above-t-max",
        "mmt-sigma", "mmt-beta", "mmt-alpha", "unknown-model",
        "mmt-scan-xi-min-above-xi-max"])
def test_refusals_print_one_line(capsys, argv, code, message):
    # a validation error prints nothing on stdout; a graph whose samples
    # were all tried still prints its rows
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert err == message + "\n"
    if code == 1:
        assert out == ""


@pytest.mark.parametrize("argv", [["split", "--model", "saddle1", "--out"],
                                  ["manifold", "--config"]],
                         ids=["out", "config"])
def test_path_that_is_a_directory_exits_1(capsys, tmp_path, argv):
    # a file path that names a directory is an input error, as a missing
    # directory is: one error line, not an IsADirectoryError traceback
    code, _, err = run_cli(capsys, *argv, str(tmp_path))
    assert code == 1
    assert err.startswith("error: [Errno ") and err.count("\n") == 1
    assert str(tmp_path) in err


def test_config_file_skips_comments_and_blank_lines(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment line\n\ngrid = 5  # trailing comment\n")
    assert cli.load_config_file(str(cfg)) == {"grid": "5"}


def test_config_line_without_equals_is_refused(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model=saddle1\ngrid 5\n")
    code, out, err = run_cli(capsys, "manifold", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert err == "error: bad config line (need key=value): 'grid 5'\n"


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


def test_config_key_of_no_flag_is_refused(capsys, tmp_path):
    # a misspelt key once ran the default grid of 11 and exited 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model=saddle1\ngird=3\n")
    code, out, err = run_cli(capsys, "manifold", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'gird'" in err


def test_config_key_reads_as_its_flag(capsys, tmp_path):
    # --sigma of waterwave once stored to sigma_t, and the file key sigma
    # went unread and left B at its default
    cfg = tmp_path / "ww.cfg"
    cfg.write_text("sigma=5\nh0=1\nc=0.5\nn-k=7\n")
    code, from_file, _ = run_cli(capsys, "waterwave", "froude", "--config",
                                 str(cfg))
    assert code == 0
    code, from_flags, _ = run_cli(capsys, "waterwave", "froude", "--sigma",
                                  "5", "--h0", "1", "--c", "0.5", "--n-k", "7")
    assert code == 0
    assert from_file == from_flags
    assert "B=0.2" in from_file


@pytest.mark.parametrize("text, key, value", [
    ("model=saddle2\nside=sideways\n", "side", "sideways"),
    ("model=saddle1\ngrid=3.7\n", "grid", "3.7"),
    ("model=saddle1\neps=wide\n", "eps", "wide"),
], ids=["choices", "int", "float"])
def test_config_value_the_flag_would_refuse(capsys, tmp_path, text, key,
                                            value):
    # side=sideways once ran the unstable side and exited 0, and grid=3.7
    # printed int()'s message without the key
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code, out, err = run_cli(capsys, "manifold", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"'{key}'" in err and f"'{value}'" in err


def _subcommands():
    """Leaf subcommand ('split', ..., 'waterwave kh', ...) -> its parser."""
    leaves, todo = {}, [((), cli.make_parser())]
    while todo:
        names, parser = todo.pop(0)
        action = next((a for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction)), None)
        if action is None:
            leaves[" ".join(names)] = parser
        else:
            todo += [((*names, name), sub)
                     for name, sub in action.choices.items()]
    return leaves


def _defaulted_flags():
    """One case per command and flag with a default: the (leaf, action) of
    the flag under each leaf subcommand that declares it (waterwave's --g
    under froude, kh and scan)."""
    cases = {}
    for leaf, sub in _subcommands().items():
        for action in sub._actions:
            if (action.option_strings and action.default is not None
                    and action.dest != "help"):
                key = leaf.split()[0] + action.option_strings[0]
                cases.setdefault(key, []).append((leaf, action))
    return [pytest.param(uses, id=key) for key, uses in cases.items()]


def _help_defaults(leaf):
    """flag -> the default `lpman leaf --help` prints for it."""
    help_text = _subcommands()[leaf].format_help()
    options = help_text.split("\noptions:\n", 1)[1]
    printed = {}
    for entry in re.split(r"\n(?=  -)", options):
        entry = " ".join(entry.split())
        match = re.search(r"\(default: ([^()]*)\)$", entry)
        if match:
            printed[entry.split()[0].rstrip(",")] = match.group(1)
    return printed


def _resolved(monkeypatch, capsys, leaf, *argv):
    seen = []
    head = leaf.split()
    monkeypatch.setitem(cli.COMMANDS, head[0], lambda args: seen.append(args))
    assert run_cli(capsys, *head, *argv)[0] is None
    return seen[0]


@pytest.mark.parametrize("uses", _defaulted_flags())
def test_flag_then_config_then_default(monkeypatch, capsys, tmp_path, uses):
    for leaf, action in uses:
        flag, default = action.option_strings[0], action.default
        if action.choices is not None:
            # the flag, given at the default, still beats the file
            in_file = next(c for c in action.choices if c != default)
            on_line = default
        else:
            in_file = action.type(3) if math.isinf(default) else default + 1
            on_line = in_file + 1
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag[2:]}={in_file}\n")
        args = _resolved(monkeypatch, capsys, leaf, "--config", str(cfg),
                         flag, str(on_line))
        assert getattr(args, action.dest) == on_line
        args = _resolved(monkeypatch, capsys, leaf, "--config", str(cfg))
        assert getattr(args, action.dest) == in_file
        args = _resolved(monkeypatch, capsys, leaf)
        assert getattr(args, action.dest) == default
        assert _help_defaults(leaf)[flag] == str(default)
        assert "_given" not in vars(args)


def test_every_flag_declares_its_default():
    # None is left only to paths, the required --model and the defaults a
    # command derives from the model (--gap, --lam, --t-max) or from the
    # fluid velocities (waterwave kh --b)
    derived = {"config", "out", "plot_out", "model", "gap", "lam", "t_max",
               "b"}
    undeclared = {(leaf, action.dest) for leaf, sub in _subcommands().items()
                  for action in sub._actions
                  if action.option_strings and action.default is None
                  and action.dest not in derived}
    assert undeclared == set()
    assert _defaulted_flags()


def test_dt_and_tol_defaults_differ_by_command():
    assert _help_defaults("manifold")["--dt"] == "0.005"
    assert _help_defaults("picard")["--dt"] == "0.001"
    assert _help_defaults("manifold")["--tol"] == "1e-09"
    assert _help_defaults("picard")["--tol"] == "1e-10"


def test_abbreviated_flag_beats_config(monkeypatch, capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid=3\nsigma=1\n")
    args = _resolved(monkeypatch, capsys, "manifold", "--config", str(cfg),
                     "--gr", "7", "--sig=-1")
    assert args.grid == 7 and args.sigma == -1


def test_derived_defaults_stay_none(monkeypatch, capsys):
    args = _resolved(monkeypatch, capsys, "manifold")
    assert (args.gap, args.lam, args.t_max) == (None, None, None)
    assert _resolved(monkeypatch, capsys, "waterwave kh").b is None


@pytest.mark.parametrize("flag, value, message", [
    ("--max-iter", "0", "max_iter must be at least 1, got 0"),
    ("--max-iter", "-3", "max_iter must be at least 1, got -3"),
    ("--tol", "-1", "tol must be non-negative, got -1.0"),
    ("--tol", "inf", "tol must be finite, got inf"),
], ids=["0", "-3", "tol-1", "tol-inf"])
def test_manifold_refuses_max_iter_below_one(capsys, flag, value, message):
    # without a sweep, or with every increment at most tol = inf, every
    # sample would report h = 0 as converged; below tol = 0 every sample
    # would fail as a numerical failure
    code, out, err = run_cli(capsys, "manifold", "--model", "saddle1",
                             "--grid", "5", flag, value)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("flag, value", [
    ("--t-max", "inf"), ("--t-max", "nan"), ("--dt", "inf"),
    ("--dt", "nan"), ("--eps", "inf"), ("--eps", "nan"),
    ("--delta-t", "inf"), ("--delta-t", "nan"),
], ids=["t-max-inf", "t-max-nan", "dt-inf", "dt-nan", "eps-inf", "eps-nan",
        "delta-t-inf", "delta-t-nan"])
def test_manifold_refuses_non_finite_inputs(capsys, flag, value):
    name = flag[2:].replace("t-max", "T_max").replace("-", "_")
    code, out, err = run_cli(capsys, "manifold", "--model", "saddle1",
                             "--grid", "3", flag, value)
    assert code == 1
    assert out == ""
    assert err == (f"error: {name} must be a positive finite number, "
                   f"got {value}\n")


@pytest.mark.parametrize("argv, message", [
    (["split", "--model", "saddle1", "--gap", "nan"],
     "gap must be a positive finite number, got nan"),
    (["manifold", "--model", "saddle1", "--gap", "nan"],
     "gap must be a positive finite number, got nan"),
    (["split", "--model", "mmt", "--alpha", "nan"],
     "alpha must be a finite number, got nan"),
    (["split", "--model", "mmt", "--beta", "nan"],
     "beta must be a finite number, got nan"),
    (["split", "--model", "mmt", "--a", "nan"],
     "a must be a finite number, got nan"),
    (["split", "--model", "rd", "--lambda-param", "nan"],
     "lambda_param must be a finite number, got nan"),
    (["waterwave", "froude", "--h0", "1", "--g", "nan"],
     "g must be a finite number, got nan"),
    (["waterwave", "froude", "--h0", "1", "--sigma", "nan"],
     "sigma must be a finite number, got nan"),
    (["waterwave", "froude", "--h0", "1", "--c", "nan"],
     "c_vec[0] must be a finite number, got nan"),
    (["waterwave", "kh", "--rho-plus", "nan"],
     "rho_plus must be a finite number, got nan"),
    (["waterwave", "kh", "--nu-plus", "nan"],
     "nu_plus[0] must be a finite number, got nan"),
    (["waterwave", "scan", "--g", "nan"],
     "g must be a finite number, got nan"),
], ids=["split-gap", "manifold-gap", "alpha", "beta", "a", "lambda-param",
        "froude-g", "froude-sigma", "froude-c", "kh-rho-plus", "kh-nu-plus",
        "scan-g"])
def test_non_finite_parameters_are_validation_errors(capsys, argv, message):
    # a NaN gap used to split as if every eigenvalue were central, and a
    # NaN model parameter reached the SVD as a numerical failure
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_rd_above_desk_scale_is_a_validation_error(capsys):
    code, out, err = run_cli(capsys, "split", "--model", "rd", "--modes", "65")
    assert code == 1
    assert out == ""
    assert err == "error: n_modes too large (desk scale is <= 64 modes)\n"


def test_manifold_refuses_delta_t_before_any_solve(capsys, monkeypatch):
    solves = []
    real = lp.lp_solve

    def counting(*args, **kwargs):
        solves.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(lp, "lp_solve", counting)
    code, out, err = run_cli(capsys, "manifold", "--model", "saddle1",
                             "--grid", "21", "--delta-t", "nan")
    assert code == 1
    assert out == ""
    assert err == "error: delta_t must be a positive finite number, got nan\n"
    assert solves == []


@pytest.mark.parametrize("argv", [
    ["--dt", "0"], ["--dt", "-0.001"], ["--tol", "-1"], ["--tol", "inf"],
], ids=["dt0", "dt-negative", "tol-1", "tol-inf"])
def test_picard_refuses_bad_step_and_tol(capsys, argv):
    code, out, err = run_cli(capsys, "picard", "--model", "saddle1", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def _readme_cli_lines(*commands):
    """The lpman lines of README's CLI block that run one of commands, as
    argv lists."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    return [shlex.split(line, comments=True)[1:]
            for line in block.split("```", 1)[0].splitlines()
            if line.startswith("lpman ") and line.split()[1] in commands]


@pytest.mark.parametrize("argv", _readme_cli_lines("split", "mmt-scan",
                                                   "waterwave"), ids=" ".join)
def test_readme_line_reads_the_same_from_a_config_file(capsys, tmp_path,
                                                       argv):
    n = 2 if argv[0] == "waterwave" else 1
    head, flags = argv[:n], argv[n:]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{flag[2:]}={value}\n"
                           for flag, value in zip(flags[::2], flags[1::2])))
    code, from_flags, _ = run_cli(capsys, *argv)
    assert code == 0
    code, from_file, _ = run_cli(capsys, *head, "--config", str(cfg))
    assert code == 0
    assert from_file == from_flags


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
