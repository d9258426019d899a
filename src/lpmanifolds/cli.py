"""Command line front end.

Subcommands: split, manifold, mmt-scan, waterwave (symbol | froude | kh |
scan), picard, verify.  Options may come from a plain key=value config file
(--config); explicit flags override file values.  Output is deterministic
CSV (comma-delimited, header row, LF endings, 17 significant digits).

Exit codes: 0 success, 1 validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import (
    LpConfig,
    OneFluidConfig,
    TwoFluidConfig,
    capillary_multiplier,
    dn_flat_symbol,
    eigen_split,
    froude_bond,
    invariance_residual,
    kh_bound,
    kh_rt_multiplier,
    mmt_galerkin,
    mmt_mode_set,
    mmt_unstable_scan,
    picard_solve,
    reaction_diffusion,
    reversed_model,
    saddle_toy,
    split_field,
)
from .linalg import _positive_finite
from .lp import NoContractionError, build_manifold_graph
from .models import MmtParams, mmt_block
from .oracles import reference_flow
from .verify import SUITES, run_suite


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def write_csv(path: str | None, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(x) for x in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def write_plot_data(path: str | None, rows: list[list]) -> None:
    """Whitespace-delimited numeric columns for external plotting tools."""
    if path is None:
        return
    with open(path, "w", newline="\n") as fh:
        for row in rows:
            fh.write(" ".join(_fmt(x) for x in row) + "\n")


def load_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (need key=value): {line!r}")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _by_dest(parser: argparse.ArgumentParser, cmd: str,
             config: dict[str, str]) -> dict[str, str]:
    """config (load_config_file) keyed by the dests of subcommand cmd's
    long flags that its keys name, '_' standing for '-' (waterwave's
    --sigma stores to sigma_t).  A key that names no flag of cmd, or names
    --config itself, raises ValueError."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)).choices[cmd]
    dests = {opt[2:].replace("-", "_"): action.dest
             for action in sub._actions if action.dest not in ("help", "config")
             for opt in action.option_strings if opt.startswith("--")}
    for key in config:
        if key not in dests:
            raise ValueError(f"unknown config key {key!r}: {cmd} has no "
                             f"--{key.replace('_', '-')} flag")
    return {dests[key]: val for key, val in config.items()}


def merged(args: argparse.Namespace, key: str, default, cast=float):
    """Flag value if given, else config-file value, else the default."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    fileval = args._file_config.get(key)
    if fileval is not None:
        return cast(fileval)
    return default


def _mmt_params(args, half_width: int | None = None) -> MmtParams:
    """MMT parameters from the flags; the mode set spans xi0 +- half_width
    (default: the --half-width value)."""
    xi0 = int(merged(args, "xi0", 0, int))
    if half_width is None:
        half_width = int(merged(args, "half_width", 3, int))
    return MmtParams(
        alpha=merged(args, "alpha", 1.0),
        beta=merged(args, "beta", 0.0),
        sigma=int(merged(args, "sigma", -1, int)),
        a=merged(args, "a", 1.2),
        xi0=xi0,
        mode_set=mmt_mode_set(xi0, half_width))


def build_model(args):
    name = merged(args, "model", None, str)
    if name is None:
        raise ValueError("--model is required")
    if name in ("saddle1", "saddle2"):
        return saddle_toy(name)
    if name == "rd":
        return reaction_diffusion(merged(args, "lambda_param", 0.5),
                                  int(merged(args, "modes", 5, int)))
    if name == "mmt":
        return mmt_galerkin(_mmt_params(args))
    raise ValueError(f"unknown model {name!r}")


def default_gap(A) -> float:
    """Half the smallest nonzero |Re| of the eigenvalues of A, or 0.5."""
    # real parts at roundoff scale count as zero: a Jordan block at 0 whose
    # entries carry roundoff eps splits by about sqrt(eps ||A||)
    tol = 1e-6 * max(1.0, float(np.linalg.norm(A, 2)))
    pos = sorted(abs(z.real) for z in np.linalg.eigvals(A) if abs(z.real) > tol)
    return 0.5 * pos[0] if pos else 0.5


def _splitting(args, model):
    """The gap (--gap, else default_gap) and the spectral splitting of the
    model's Jacobian at its equilibrium."""
    A = model.jacobian(model.equilibrium)
    gap = merged(args, "gap", None)
    if gap is None:
        gap = default_gap(A)
    return gap, eigen_split(A, gap)


def make_lp_config(args, splitting) -> LpConfig:
    lo, hi = splitting.rest_max_re, splitting.lambda_plus
    lam_def = 0.5 * hi + 0.5 * max(lo, 0.0)
    lam = merged(args, "lam", lam_def)
    T_def = min(16.0 / max(hi, 1e-3), 60.0)
    return LpConfig(
        lam=lam,
        T_max=merged(args, "t_max", T_def),
        dt=merged(args, "dt", 0.005),
        eps=merged(args, "eps", 0.05),
        tol=merged(args, "tol", 1e-9),
        max_iter=int(merged(args, "max_iter", 60, int)))


def cmd_split(args) -> int:
    model = build_model(args)
    gap, sp = _splitting(args, model)
    print(f"model={model.name} dim={model.dimension} gap={gap}")
    print(f"dim_plus={sp.dim_plus} dim_center={sp.dim_center} "
          f"dim_minus={sp.dim_minus}")
    print(f"lambda_plus={_fmt(sp.lambda_plus)} "
          f"omega_plus={_fmt(sp.omega_plus)} "
          f"omega_minus={_fmt(sp.omega_minus)} "
          f"rest_max_re={_fmt(sp.rest_max_re)}")
    rows = [[z.real, z.imag, b] for z, b in zip(sp.eigenvalues, sp.blocks)]
    write_csv(merged(args, "out", None, str), ["re", "im", "block"], rows)
    if merged(args, "model", None, str) == "mmt":
        p = _mmt_params(args)
        seen = set()
        print("pair blocks (xi, partner, c+, c-, c, discriminant):")
        for xi in p.mode_set:
            partner = 2 * p.xi0 - xi
            if xi == p.xi0 or (partner, xi) in seen:
                continue
            seen.add((xi, partner))
            blk = mmt_block(p, xi)
            B, _ = blk.quartic_coeffs()
            print(f"  ({xi}, {partner}): c+={_fmt(blk.c_plus)} "
                  f"c-={_fmt(blk.c_minus)} c={_fmt(blk.c)} disc={_fmt(B)}")
    return 0


def cmd_manifold(args) -> int:
    model = build_model(args)
    if merged(args, "side", "unstable", str) == "stable":
        model = reversed_model(model)
    _, sp = _splitting(args, model)
    if sp.dim_plus == 0:
        raise ValueError("no unstable directions at this gap")
    pieces = split_field(model, sp)
    cfg = make_lp_config(args, sp)
    n_grid = int(merged(args, "grid", 11, int))
    seed = int(merged(args, "seed", 0, int))
    delta_t = merged(args, "delta_t", 0.1)
    _positive_finite("delta_t", delta_t)
    graph = build_manifold_graph(pieces, cfg, grid_spec=n_grid, seed=seed)
    inv = invariance_residual(graph, pieces, cfg, delta_t)
    header = ([f"base{i}" for i in range(sp.dim_plus)]
              + [f"h{i}" for i in range(pieces.d_rest)]
              + ["lambda_fit", "iterations", "fp_residual",
                 "invariance_residual", "status"])
    rows = []
    for i in range(graph.base_points.shape[0]):
        rows.append(list(graph.base_points[i]) + list(graph.values[i])
                    + [graph.lambda_fit[i], int(graph.iterations[i]),
                       graph.fp_residual[i], inv["residuals"][i],
                       graph.status[i].split(":")[0]])
    write_csv(merged(args, "out", None, str), header, rows)
    write_plot_data(merged(args, "plot_out", None, str),
                    [list(graph.base_points[i]) + list(graph.values[i])
                     for i in range(graph.base_points.shape[0])
                     if graph.status[i] == "ok"])
    tan = graph.diagnostics.get("tangency_slope")
    lip = graph.diagnostics.get("lipschitz_low")
    print(f"samples={len(rows)} ok={int(graph.ok.sum())} "
          f"tangency_slope={_fmt(tan) if tan is not None else 'n/a'} "
          f"lipschitz_low={_fmt(lip) if lip is not None else 'n/a'} "
          f"max_invariance={_fmt(inv['max_residual'])}")
    if not graph.ok.any():
        raise NoContractionError("empty manifold graph: every sample failed")
    return 0


def cmd_mmt_scan(args) -> int:
    p = _mmt_params(args, max(1, int(merged(args, "xi_max", 8, int))))
    lo = int(merged(args, "xi_min", -8, int))
    hi = int(merged(args, "xi_max", 8, int))
    rows = []
    for row in mmt_unstable_scan(p, range(lo, hi + 1)):
        rows.append([row["xi"], row["partner"], row["discriminant"],
                     int(row["flagged"]), row["max_re"],
                     int(row["confirmed"])])
    write_csv(merged(args, "out", None, str),
              ["xi", "partner", "discriminant", "flagged", "max_re",
               "confirmed"], rows)
    bad = [r for r in rows if r[3] and not r[5]]
    if bad:
        raise RuntimeError(
            f"flagged pair not confirmed by eigensolve: xi={bad[0][0]}")
    return 0


def _one_fluid(args) -> OneFluidConfig:
    return OneFluidConfig(
        g=merged(args, "g", 1.0),
        sigma=merged(args, "sigma_t", 1.0),
        h0=merged(args, "h0", math.inf),
        c_vec=(merged(args, "c", 0.0),))


def _two_fluid(args) -> TwoFluidConfig:
    return TwoFluidConfig(
        rho_plus=merged(args, "rho_plus", 1.0),
        rho_minus=merged(args, "rho_minus", 2.0),
        nu_plus=(merged(args, "nu_plus", 0.0),),
        nu_minus=(merged(args, "nu_minus", 0.0),),
        h_plus=merged(args, "h_plus", math.inf),
        h_minus=merged(args, "h_minus", math.inf),
        g=merged(args, "g", 1.0),
        sigma=merged(args, "sigma_t", 1.0))


def cmd_waterwave(args) -> int:
    sub = args.wavecmd
    out = merged(args, "out", None, str)
    if sub == "symbol":
        h0 = merged(args, "h0", math.inf)
        ks = np.logspace(math.log10(merged(args, "k_min", 1e-2)),
                         math.log10(merged(args, "k_max", 1e2)),
                         int(merged(args, "n_k", 101, int)))
        write_csv(out, ["k", "symbol"],
                  [[k, dn_flat_symbol(k, h0)] for k in ks])
    elif sub == "froude":
        cfg = _one_fluid(args)
        fr, bo, flag = froude_bond(cfg)
        ks = np.logspace(-3, 3, int(merged(args, "n_k", 121, int)))
        mvals = [capillary_multiplier(np.array([k]), cfg) for k in ks]
        negative = sum(1 for v in mvals if v < 0)
        write_csv(out, ["froude", "bond", "coercive", "min_multiplier",
                        "negative_modes"],
                  [[fr, bo, int(flag), min(mvals), negative]])
        print(f"F={_fmt(fr)} B={_fmt(bo)} coercive={flag} "
              f"min_multiplier={_fmt(min(mvals))}")
    elif sub == "kh":
        cfg = _two_fluid(args)
        b = merged(args, "b", None)
        if b is not None:
            # interpret b as the total momentum flux sum rho |nu|^2 with
            # equal split between the two fluids
            half = math.sqrt(b / (cfg.rho_plus + cfg.rho_minus))
            cfg = TwoFluidConfig(cfg.rho_plus, cfg.rho_minus, (half,),
                                 (half,), cfg.h_plus, cfg.h_minus, cfg.g,
                                 cfg.sigma)
        bound = kh_bound(cfg)
        write_csv(out, ["kh_bound"], [[bound]])
        print(f"kh_bound={_fmt(bound)}")
    elif sub == "scan":
        cfg = _two_fluid(args)
        ks = np.logspace(math.log10(merged(args, "k_min", 1e-2)),
                         math.log10(merged(args, "k_max", 1e2)),
                         int(merged(args, "n_k", 101, int)))
        rows = [[k, kh_rt_multiplier(np.array([k]), cfg)] for k in ks]
        write_csv(out, ["k", "multiplier"], rows)
        write_plot_data(merged(args, "plot_out", None, str), rows)
        bound = kh_bound(cfg)
        print(f"min_multiplier={_fmt(min(r[1] for r in rows))} "
              f"kh_bound={_fmt(bound)}")
    else:
        raise ValueError(f"unknown waterwave subcommand {sub!r}")
    return 0


def cmd_picard(args) -> int:
    model = build_model(args)
    x0 = merged(args, "x0", 0.1)
    v0 = model.equilibrium.copy()
    v0[0] += x0
    T = merged(args, "t_final", 0.5)
    orbit, diag = picard_solve(model, v0, T, merged(args, "dt", 1e-3),
                               tol=merged(args, "tol", 1e-10))
    discrepancy = np.linalg.norm(
        orbit.states[-1] - reference_flow(model.vector_field, v0, 0.0, T))
    write_csv(merged(args, "out", None, str),
              ["t"] + [f"v{i}" for i in range(model.dimension)],
              [[t] + list(s) for t, s in zip(orbit.times, orbit.states)])
    print(f"iterations={diag['iterations']} "
          f"contraction_factor={_fmt(diag['contraction_factor'])} "
          f"reference_discrepancy={_fmt(discrepancy)}")
    return 0


def cmd_verify(args) -> int:
    suite = merged(args, "suite", "all", str)
    ok = run_suite(suite)
    return 0 if ok else 2


def _add_common(sp):
    sp.add_argument("--config", help="key=value config file; flags override")
    sp.add_argument("--out", help="CSV output path (default stdout)")


def _add_mmt(sp):
    sp.add_argument("--alpha", type=float, help="mmt: dispersion exponent")
    sp.add_argument("--beta", type=float, help="mmt: nonlinearity exponent")
    sp.add_argument("--sigma", type=int, help="mmt: +1 or -1")
    sp.add_argument("--a", type=float, help="mmt: plane-wave amplitude")
    sp.add_argument("--xi0", type=int, help="mmt: carrier mode")


def _add_model(sp):
    """The flags build_model reads."""
    sp.add_argument("--model", help="saddle1 | saddle2 | rd | mmt")
    sp.add_argument("--lambda-param", dest="lambda_param", type=float,
                    help="rd: linear growth parameter")
    sp.add_argument("--modes", type=int, help="rd: number of cosine modes")
    _add_mmt(sp)
    sp.add_argument("--half-width", dest="half_width", type=int,
                    help="mmt: mode set half width about xi0")


def _add_lp(sp):
    sp.add_argument("--lam", type=float, help="LP decay rate inside the gap")
    sp.add_argument("--t-max", dest="t_max", type=float,
                    help="backward horizon")
    sp.add_argument("--dt", type=float, help="grid step")
    sp.add_argument("--eps", type=float, help="base-point ball radius")
    sp.add_argument("--tol", type=float, help="fixed-point tolerance")
    sp.add_argument("--max-iter", dest="max_iter", type=int)


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lpman",
        description="Invariant manifolds of Galerkin-truncated PDEs and "
                    "explicit linear stability criteria")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("split", help="spectral splitting report")
    _add_common(sp)
    _add_model(sp)
    sp.add_argument("--gap", type=float, help="spectral splitting gap")

    sp = sub.add_parser("manifold", help="sample a manifold graph")
    _add_common(sp)
    _add_model(sp)
    sp.add_argument("--gap", type=float, help="spectral splitting gap")
    _add_lp(sp)
    sp.add_argument("--plot-out", dest="plot_out",
                    help="whitespace-delimited plot data path")
    sp.add_argument("--side", choices=["unstable", "stable"])
    sp.add_argument("--grid", type=int, help="grid resolution per dimension")
    sp.add_argument("--seed", type=int,
                    help="seed of the Sobol base points above dimension 3")
    sp.add_argument("--delta-t", dest="delta_t", type=float,
                    help="invariance check horizon")

    sp = sub.add_parser("mmt-scan", help="mode-pair instability scan")
    _add_common(sp)
    _add_mmt(sp)
    sp.add_argument("--xi-min", dest="xi_min", type=int)
    sp.add_argument("--xi-max", dest="xi_max", type=int)

    sp = sub.add_parser("waterwave", help="linear water-wave criteria")
    sp.add_argument("wavecmd", choices=["symbol", "froude", "kh", "scan"])
    sp.add_argument("--config")
    sp.add_argument("--out")
    sp.add_argument("--plot-out", dest="plot_out")
    sp.add_argument("--g", type=float)
    sp.add_argument("--sigma", dest="sigma_t", type=float,
                    help="surface tension")
    sp.add_argument("--h0", type=float)
    sp.add_argument("--c", type=float, help="background speed")
    sp.add_argument("--rho-plus", dest="rho_plus", type=float)
    sp.add_argument("--rho-minus", dest="rho_minus", type=float)
    sp.add_argument("--nu-plus", dest="nu_plus", type=float)
    sp.add_argument("--nu-minus", dest="nu_minus", type=float)
    sp.add_argument("--h-plus", dest="h_plus", type=float)
    sp.add_argument("--h-minus", dest="h_minus", type=float)
    sp.add_argument("--b", type=float,
                    help="total momentum flux sum rho |nu|^2")
    sp.add_argument("--k-min", dest="k_min", type=float)
    sp.add_argument("--k-max", dest="k_max", type=float)
    sp.add_argument("--n-k", dest="n_k", type=int)

    sp = sub.add_parser("picard", help="contraction-mapping integrator")
    _add_common(sp)
    _add_model(sp)
    sp.add_argument("--x0", type=float, help="first-coordinate offset")
    sp.add_argument("--t-final", dest="t_final", type=float)
    sp.add_argument("--dt", type=float)
    sp.add_argument("--tol", type=float)

    sp = sub.add_parser("verify", help="run the invariant suite")
    sp.add_argument("--config")
    sp.add_argument("--suite", choices=SUITES)

    return ap


COMMANDS = {
    "split": cmd_split,
    "manifold": cmd_manifold,
    "mmt-scan": cmd_mmt_scan,
    "waterwave": cmd_waterwave,
    "picard": cmd_picard,
    "verify": cmd_verify,
}


# main's parser, built once per process: parse_args keeps no state between
# calls
_parser = functools.cache(make_parser)


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    cfg_path = getattr(args, "config", None)
    try:
        args._file_config = (_by_dest(parser, args.cmd,
                                      load_config_file(cfg_path))
                             if cfg_path else {})
        code = COMMANDS[args.cmd](args)
    # LinAlgError subclasses ValueError, so it is caught first
    except (NoContractionError, RuntimeError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
