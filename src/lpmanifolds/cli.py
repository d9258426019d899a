"""Command line front end.

Subcommands: split, manifold, mmt-scan, waterwave (symbol | froude | kh |
scan), picard, verify.  Each option resolves once, in resolve: the flag if
given, else its value in the plain key=value --config file, else the
default make_parser declares, which --help lists.  Commands read the
resolved namespace.  split, manifold and picard take --model, a name of
MODELS, which lists each model's builder and flags; a flag of another
model is a usage error (exit 2), and as a --config key it exits 1.
Output is deterministic CSV (comma-delimited, header row, LF endings, 17
significant digits).

Exit codes: 0 success, 1 validation error, 2 numerical failure or usage
error.
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


def _leaf(parser: argparse.ArgumentParser, args: argparse.Namespace
          ) -> tuple[list[str], argparse.ArgumentParser]:
    """The names of the subcommands args chose and the last one's parser."""
    names, leaf = [], parser
    while action := next((a for a in leaf._actions
                          if isinstance(a, argparse._SubParsersAction)), None):
        names.append(getattr(args, action.dest))
        leaf = action.choices[names[-1]]
    return names, leaf


def resolve(parser: argparse.ArgumentParser,
            args: argparse.Namespace) -> argparse.Namespace:
    """args, parsed by parser, with each flag the command line did not give
    taken from the --config file if it names the flag, converted and checked
    by the flag's type and choices.  A key is a long flag of the chosen
    subcommand (waterwave's: of its chosen subcommand) without its dashes,
    '_' standing for '-'; any other key, and a value the flag refuses, raise
    ValueError.  Once the model is known, from the flag or the file, a flag
    of another model exits 2 with the subcommand's usage line, and such a
    key raises ValueError."""
    given = vars(args).pop("_given", set())
    names, leaf = _leaf(parser, args)
    flags = {opt[2:].replace("-", "_"): action
             for action in leaf._actions
             if action.dest not in ("help", "config")
             for opt in action.option_strings if opt.startswith("--")}
    config = {} if args.config is None else load_config_file(args.config)
    model = getattr(args, "model", None)
    if "model" in flags and "model" not in given:
        model = config.get("model", model)
    # key -> flag of the other models' flags (none for an unknown model,
    # which build_model refuses)
    foreign = {flag[2:].replace("-", "_"): flag
               for name, (_, model_flags) in MODELS.items()
               if model in MODELS and name != model
               for flag, _, _ in model_flags}
    for dest in sorted(given & foreign.keys()):
        leaf.error(f"model {model!r} has no {foreign[dest]} flag")
    for key, text in config.items():
        action = flags.get(key)
        if action is None or key in foreign:
            owner = f"model {model!r}" if key in foreign else " ".join(names)
            raise ValueError(f"unknown config key {key!r}: {owner} "
                             f"has no --{key.replace('_', '-')} flag")
        try:
            value = text if action.type is None else action.type(text)
        except ValueError:
            raise ValueError(f"config key {key!r}: invalid "
                             f"{action.type.__name__} value {text!r}") from None
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"config key {key!r}: unknown {key} {value!r} "
                             f"(choose from {', '.join(action.choices)})")
        if action.dest not in given:
            setattr(args, action.dest, value)
    return args


def _mmt_params(args, half_width: int | None = None) -> MmtParams:
    """MMT parameters from the flags; the mode set spans xi0 +- half_width
    (default: the --half-width value)."""
    half_width = args.half_width if half_width is None else half_width
    return MmtParams(alpha=args.alpha, beta=args.beta, sigma=args.sigma,
                     a=args.a, xi0=args.xi0,
                     mode_set=mmt_mode_set(args.xi0, half_width))


# model name -> (its builder, the (flag, default, help) of each flag it
# reads); split, manifold and picard declare every model's flags, and
# resolve refuses those of a model other than the chosen one
MODELS = {
    "saddle1": (lambda args: saddle_toy("saddle1"), ()),
    "saddle2": (lambda args: saddle_toy("saddle2"), ()),
    "rd": (lambda args: reaction_diffusion(args.lambda_param, args.modes),
           (("--lambda-param", 0.5, "rd: linear growth parameter"),
            ("--modes", 5, "rd: number of cosine modes"))),
    "mmt": (lambda args: mmt_galerkin(_mmt_params(args)),
            (("--alpha", 1.0, "mmt: dispersion exponent"),
             ("--beta", 0.0, "mmt: nonlinearity exponent"),
             ("--sigma", -1, "mmt: +1 or -1"),
             ("--a", 1.2, "mmt: plane-wave amplitude"),
             ("--xi0", 0, "mmt: carrier mode"),
             ("--half-width", 3, "mmt: mode set half width about xi0"))),
}


def build_model(args):
    if args.model is None:
        raise ValueError("--model is required")
    if args.model not in MODELS:
        raise ValueError(f"unknown model {args.model!r} "
                         f"(choose from {', '.join(MODELS)})")
    return MODELS[args.model][0](args)


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
    gap = default_gap(A) if args.gap is None else args.gap
    return gap, eigen_split(A, gap)


def make_lp_config(args, splitting) -> LpConfig:
    lo, hi = splitting.rest_max_re, splitting.lambda_plus
    lam = 0.5 * hi + 0.5 * max(lo, 0.0) if args.lam is None else args.lam
    T_max = (min(16.0 / max(hi, 1e-3), 60.0) if args.t_max is None
             else args.t_max)
    return LpConfig(lam=lam, T_max=T_max, dt=args.dt, eps=args.eps,
                    tol=args.tol, max_iter=args.max_iter)


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
    write_csv(args.out, ["re", "im", "block"], rows)
    if args.model == "mmt":
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
    if args.side == "stable":
        model = reversed_model(model)
    _, sp = _splitting(args, model)
    if sp.dim_plus == 0:
        raise ValueError("no unstable directions at this gap")
    pieces = split_field(model, sp)
    cfg = make_lp_config(args, sp)
    _positive_finite("delta_t", args.delta_t)
    graph = build_manifold_graph(pieces, cfg, grid_spec=args.grid,
                                 seed=args.seed)
    inv = invariance_residual(graph, pieces, cfg, args.delta_t)
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
    write_csv(args.out, header, rows)
    write_plot_data(args.plot_out,
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
    if args.xi_min > args.xi_max:
        raise ValueError(f"xi_min must not exceed xi_max, got {args.xi_min} "
                         f"> {args.xi_max}")
    p = _mmt_params(args, max(1, args.xi_max))
    rows = []
    for row in mmt_unstable_scan(p, range(args.xi_min, args.xi_max + 1)):
        rows.append([row["xi"], row["partner"], row["discriminant"],
                     int(row["flagged"]), row["max_re"],
                     int(row["confirmed"])])
    write_csv(args.out,
              ["xi", "partner", "discriminant", "flagged", "max_re",
               "confirmed"], rows)
    bad = [r for r in rows if r[3] and not r[5]]
    if bad:
        raise RuntimeError(
            f"flagged pair not confirmed by eigensolve: xi={bad[0][0]}")
    return 0


def _one_fluid(args) -> OneFluidConfig:
    return OneFluidConfig(g=args.g, sigma=args.sigma, h0=args.h0,
                          c_vec=(args.c,))


def _two_fluid(args) -> TwoFluidConfig:
    return TwoFluidConfig(
        rho_plus=args.rho_plus, rho_minus=args.rho_minus,
        nu_plus=(args.nu_plus,), nu_minus=(args.nu_minus,),
        h_plus=args.h_plus, h_minus=args.h_minus, g=args.g,
        sigma=args.sigma)


def _n_k(args) -> int:
    if args.n_k < 1:
        raise ValueError(f"n_k must be at least 1, got {args.n_k}")
    return args.n_k


def _k_grid(args) -> np.ndarray:
    """--n-k wavenumbers spaced evenly in log k from --k-min to --k-max."""
    _positive_finite("k_min", args.k_min)
    _positive_finite("k_max", args.k_max)
    if args.k_min > args.k_max:
        raise ValueError(f"k_min must not exceed k_max, got {args.k_min} > "
                         f"{args.k_max}")
    return np.logspace(math.log10(args.k_min), math.log10(args.k_max),
                       _n_k(args))


def cmd_waterwave(args) -> int:
    sub = args.wavecmd
    if sub == "symbol":
        write_csv(args.out, ["k", "symbol"],
                  [[k, dn_flat_symbol(k, args.h0)] for k in _k_grid(args)])
    elif sub == "froude":
        cfg = _one_fluid(args)
        fr, bo, flag = froude_bond(cfg)
        mvals = [capillary_multiplier(np.array([k]), cfg)
                 for k in np.logspace(-3, 3, _n_k(args))]
        negative = sum(1 for v in mvals if v < 0)
        write_csv(args.out, ["froude", "bond", "coercive", "min_multiplier",
                             "negative_modes"],
                  [[fr, bo, int(flag), min(mvals), negative]])
        print(f"F={_fmt(fr)} B={_fmt(bo)} coercive={flag} "
              f"min_multiplier={_fmt(min(mvals))}")
    elif sub == "kh":
        cfg = _two_fluid(args)
        if args.b is not None:
            if not (math.isfinite(args.b) and args.b >= 0):
                raise ValueError(f"b must be a non-negative finite number, "
                                 f"got {args.b}")
            # interpret b as the total momentum flux sum rho |nu|^2 with
            # equal split between the two fluids
            half = math.sqrt(args.b / (cfg.rho_plus + cfg.rho_minus))
            cfg = TwoFluidConfig(cfg.rho_plus, cfg.rho_minus, (half,),
                                 (half,), cfg.h_plus, cfg.h_minus, cfg.g,
                                 cfg.sigma)
        bound = kh_bound(cfg)
        write_csv(args.out, ["kh_bound"], [[bound]])
        print(f"kh_bound={_fmt(bound)}")
    else:
        cfg = _two_fluid(args)
        rows = [[k, kh_rt_multiplier(np.array([k]), cfg)]
                for k in _k_grid(args)]
        write_csv(args.out, ["k", "multiplier"], rows)
        write_plot_data(args.plot_out, rows)
        print(f"min_multiplier={_fmt(min(r[1] for r in rows))} "
              f"kh_bound={_fmt(kh_bound(cfg))}")
    return 0


def cmd_picard(args) -> int:
    model = build_model(args)
    v0 = model.equilibrium.copy()
    v0[0] += args.x0
    orbit, diag = picard_solve(model, v0, args.t_final, args.dt, tol=args.tol)
    discrepancy = np.linalg.norm(orbit.states[-1] - reference_flow(
        model.vector_field, v0, 0.0, args.t_final))
    write_csv(args.out,
              ["t"] + [f"v{i}" for i in range(model.dimension)],
              [[t] + list(s) for t, s in zip(orbit.times, orbit.states)])
    print(f"iterations={diag['iterations']} "
          f"contraction_factor={_fmt(diag['contraction_factor'])} "
          f"reference_discrepancy={_fmt(discrepancy)}")
    return 0


def cmd_verify(args) -> int:
    return 0 if run_suite(args.suite) else 2


class _Store(argparse.Action):
    """argparse's store action, noting its dest in the namespace's _given
    set: resolve's flags given on the command line, abbreviated or not."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        vars(namespace).setdefault("_given", set()).add(self.dest)


class _ShowDefaults(argparse.ArgumentDefaultsHelpFormatter):
    """--help appends each flag's default, except None: that stands for a
    default the command derives, and the flag's help says how."""

    def _get_help_string(self, action):
        if action.default is None:
            return action.help
        return super()._get_help_string(action)


class _Parser(argparse.ArgumentParser):
    """The parser class of lpman and of its subcommands (add_subparsers
    passes it on): flags store through _Store and --help shows defaults."""

    def __init__(self, **kwargs):
        super().__init__(formatter_class=_ShowDefaults, **kwargs)
        self.register("action", None, _Store)


def _add(sp, *flags):
    """Add each (flag, default, help) to sp, typed by its default."""
    for flag, default, text in flags:
        sp.add_argument(flag, type=type(default), default=default, help=text)


def _add_common(sp):
    sp.add_argument("--config", help="key=value config file; flags override")
    sp.add_argument("--out", help="CSV output path (default stdout)")


def _add_model(sp):
    """--model and the flags of every model in MODELS."""
    sp.add_argument("--model", help=f"{' | '.join(MODELS)} (required)")
    for _, flags in MODELS.values():
        _add(sp, *flags)


def _add_gap(sp):
    sp.add_argument("--gap", type=float, help=(
        "spectral splitting gap (default: half the smallest nonzero |Re| of "
        "the Jacobian's eigenvalues, or 0.5)"))


def make_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="lpman",
                 description="Invariant manifolds of Galerkin-truncated PDEs "
                             "and explicit linear stability criteria")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("split", help="spectral splitting report")
    _add_common(sp)
    _add_model(sp)
    _add_gap(sp)

    sp = sub.add_parser("manifold", help="sample a manifold graph")
    _add_common(sp)
    _add_model(sp)
    _add_gap(sp)
    sp.add_argument("--lam", type=float, help=(
        "LP decay rate inside the gap (default: midway between lambda_plus "
        "and max(rest_max_re, 0))"))
    sp.add_argument("--t-max", type=float, help=(
        "backward horizon (default: min(16 / max(lambda_plus, 1e-3), 60))"))
    _add(sp, ("--dt", 0.005, "grid step"),
         ("--eps", 0.05, "base-point ball radius"),
         ("--tol", 1e-9, "fixed-point tolerance"),
         ("--max-iter", 60, "most fixed-point sweeps per sample"))
    sp.add_argument("--plot-out", help="whitespace-delimited plot data path")
    sp.add_argument("--side", choices=["unstable", "stable"],
                    default="unstable", help="which manifold")
    _add(sp, ("--grid", 11, "grid resolution per dimension"),
         ("--seed", 0, "seed of the Sobol base points above dimension 3"),
         ("--delta-t", 0.1, "invariance check horizon"))

    sp = sub.add_parser("mmt-scan", help="mode-pair instability scan")
    _add_common(sp)
    # the mode set follows --xi-max, not --half-width
    _add(sp, *(f for f in MODELS["mmt"][1] if f[0] != "--half-width"))
    _add(sp, ("--xi-min", -8, "first mode scanned"),
         ("--xi-max", 8, "last mode scanned; the mode set is xi0 +- "
                         "max(1, xi_max)"))

    sp = sub.add_parser("waterwave", help="linear water-wave criteria")
    wave = sp.add_subparsers(dest="wavecmd", required=True)
    fluid = (("--sigma", 1.0, "surface tension"), ("--g", 1.0, "gravity"))
    two_fluid = (*fluid, ("--rho-plus", 1.0, "upper density"),
                 ("--rho-minus", 2.0, "lower density"),
                 ("--nu-plus", 0.0, "upper velocity"),
                 ("--nu-minus", 0.0, "lower velocity"),
                 ("--h-plus", math.inf, "upper depth"),
                 ("--h-minus", math.inf, "lower depth"))
    k_grid = (("--k-min", 1e-2, "smallest wavenumber"),
              ("--k-max", 1e2, "largest wavenumber"),
              ("--n-k", 101, "number of wavenumbers"))

    sp = wave.add_parser("symbol", help="flat Dirichlet-Neumann symbol")
    _add_common(sp)
    _add(sp, ("--h0", math.inf, "depth"), *k_grid)

    sp = wave.add_parser("froude", help="Froude and Bond numbers and the "
                                        "capillary multiplier")
    _add_common(sp)
    # froude_bond needs a finite depth
    _add(sp, *fluid, ("--h0", 1.0, "depth"), ("--c", 0.0, "background speed"),
         ("--n-k", 121, "number of wavenumbers in [1e-3, 1e3]"))

    sp = wave.add_parser("kh", help="Kelvin-Helmholtz lower bound")
    _add_common(sp)
    _add(sp, *two_fluid)
    sp.add_argument("--b", type=float, help=(
        "total momentum flux sum rho |nu|^2, split equally (default: the "
        "--nu-plus and --nu-minus values)"))

    sp = wave.add_parser("scan", help="two-fluid interface multiplier")
    _add_common(sp)
    _add(sp, *two_fluid, *k_grid)
    sp.add_argument("--plot-out", help="whitespace-delimited plot data path")

    sp = sub.add_parser("picard", help="contraction-mapping integrator")
    _add_common(sp)
    _add_model(sp)
    _add(sp, ("--x0", 0.1, "first-coordinate offset"),
         ("--t-final", 0.5, "end time"), ("--dt", 1e-3, "grid step"),
         ("--tol", 1e-10, "sweep increment tolerance"))

    sp = sub.add_parser("verify", help="run the invariant suite")
    sp.add_argument("--config", help="key=value config file; flags override")
    sp.add_argument("--suite", choices=SUITES, default="all",
                    help="checks to run")
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
# calls (a parse's given flags live in its namespace)
_parser = functools.cache(make_parser)


def main(argv=None) -> int:
    parser = _parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        # a flag the chosen subcommand does not read, with its usage line
        _leaf(parser, args)[1].error(
            f"unrecognized arguments: {' '.join(extra)}")
    try:
        code = COMMANDS[args.cmd](resolve(parser, args))
    # LinAlgError subclasses ValueError, so it is caught first;
    # NoContractionError is a RuntimeError
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    # OSError: a --out or --config path that cannot be opened
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # a grid too large for memory is an input error
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc)
              else "error: out of memory", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
