"""Batch front door: experiments in, machine-readable tables and verdicts out.

Subcommands mirror the library surface: ``solve``, ``order``, ``energy``,
``roundoff``, ``fundamental``, ``bound``, and ``report`` (the full claims
catalog).  ``energy``, ``roundoff``, ``fundamental``, ``bound`` and ``report``
exit 1 when a check they write fails; every subcommand exits 2 on a usage
error.  Outputs are deterministic: identical configuration gives
byte-identical CSV/JSON.  Rationals serialize as ``p/q`` strings; binary64
values carry a lossless hex literal next to the decimal form.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import analysis, energy, fundamental, report, roundoff
from .errors import ParameterError, WavecheckError
from .grid import build_grid
from .problem import default_problem, standing_wave
from .report import ClaimConfig, run_claims
from .scalars import BINARY64, EXACT, scalar_json
from .scheme import DEFAULT_XI, solve


# Flag types.  argparse turns an ArgumentTypeError or ValueError raised here
# into exit status 2 with a message that names the flag.


def _finite_number(text: str, parse):
    """``parse(text)``, refused unless it is finite and within binary64 range."""
    try:
        value = parse(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None
    try:
        finite = math.isfinite(value)
    except OverflowError:  # a rational beyond the binary64 range
        finite = False
    if not finite:
        raise argparse.ArgumentTypeError(
            f"must be finite and within binary64 range, got {text!r}")
    return value


def finite_float(text: str) -> float:
    return _finite_number(text, float)


def rational_or_float(text: str):
    return _finite_number(text, Fraction if "/" in text else float)


def _comma_list(text: str, parse) -> list:
    """The nonempty comma-separated parts of ``text``, each through ``parse``."""
    values = [parse(part) for part in text.split(",") if part]
    if not values:
        raise argparse.ArgumentTypeError(f"needs at least one value, got {text!r}")
    return values


def rational_list(text: str):
    return _comma_list(text, lambda part: _finite_number(part, Fraction))


def int_list(text: str):
    return _comma_list(text, int)


def id_list(text: str):
    return _comma_list(text, str)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; ``main`` may run any number of times.

    Its defaults are immutable, so no parse can change what the next sees.
    """
    # The catalog's defaults, read from report.ClaimConfig: the name
    # cli.ClaimConfig may be rebound to a factory with other sizes.
    catalog = report.ClaimConfig()
    parser = argparse.ArgumentParser(
        prog="wavecheck",
        description="verify quantitative claims of the centered scheme for the "
                    "1D wave equation at desk scale",
    )
    # apply_config_file expands --config before argparse runs; it is declared
    # here so that the help lists it.
    parser.add_argument("--config", type=Path, default=None, metavar="FILE",
                        help="key=value file supplying defaults for the "
                             "subcommand's flags (may also follow the subcommand)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, imax=100, grid=True):
        if grid:
            p.add_argument("--imax", type=int, default=imax, help="space intervals")
            p.add_argument("--kmax", type=int, default=None,
                           help="time intervals (default: chosen from --cn)")
        p.add_argument("--c", type=rational_or_float, default=1,
                       help="propagation velocity (accepts p/q)")
        p.add_argument("--tmax", type=rational_or_float, default=1,
                       help="end time (accepts p/q)")
        p.add_argument("--cn", type=finite_float, default=report.ORDER_CN,
                       help="target Courant number when --kmax is absent")
        p.add_argument("--xi", type=finite_float, default=DEFAULT_XI,
                       help="Courant margin: require cn <= 1 - xi")
        p.add_argument("--out", type=Path, default=Path("."),
                       help="output directory")

    p_solve = sub.add_parser("solve", help="run the scheme, dump field + summary")
    common(p_solve)
    p_solve.add_argument("--scalar", choices=(BINARY64, EXACT), default=BINARY64)
    p_solve.add_argument("--problem", choices=("default", "standing", "zero"),
                         default="default")
    p_solve.add_argument("--m", type=int, default=1, help="standing-wave mode number")
    p_solve.set_defaults(func=cmd_solve)

    p_order = sub.add_parser("order", help="refinement chain and fitted slope")
    common(p_order, grid=False)
    p_order.add_argument("--mode", choices=("convergence", "truncation"),
                         default="convergence")
    p_order.add_argument("--chain", type=int_list, default=catalog.order_chain,
                         help="comma-separated i_max chain")
    p_order.add_argument("--m", type=int, default=1)
    p_order.set_defaults(func=cmd_order)

    p_energy = sub.add_parser("energy", help="energy series, drift, lower bound")
    common(p_energy)
    p_energy.add_argument("--scalar", choices=(BINARY64, EXACT), default=EXACT)
    p_energy.add_argument("--problem", choices=("default", "standing", "zero"),
                          default="default")
    p_energy.add_argument("--m", type=int, default=1)
    p_energy.set_defaults(func=cmd_energy)

    p_round = sub.add_parser("roundoff", help="shadow run: local/global errors, "
                                              "reconstruction verdict")
    common(p_round, imax=10)
    p_round.add_argument("--no-reconstruction", action="store_true",
                         help="skip the (cubic-cost) convolution check")
    p_round.set_defaults(func=cmd_roundoff)

    p_fund = sub.add_parser("fundamental", help="fundamental-solution identity checks")
    p_fund.add_argument("--depth", type=int, default=catalog.closed_form_kmax,
                        help="table depth for closed-form/row-sum/nonneg checks")
    p_fund.add_argument("--range", dest="sweep", type=int, default=catalog.identity_kmax,
                        help="max k for the identity / recurrence sweeps")
    p_fund.add_argument("--a", type=rational_list, default=report.A_VALUES,
                        help="comma-separated rationals in (0,1)")
    p_fund.add_argument("--certificates", type=int, default=catalog.certificate_samples)
    p_fund.add_argument("--seed", type=int, default=catalog.random_seed)
    p_fund.add_argument("--out", type=Path, default=Path("."))
    p_fund.set_defaults(func=cmd_fundamental)

    p_bound = sub.add_parser("bound", help="a-priori total-error bound and optimum")
    common(p_bound, grid=False)
    p_bound.add_argument("--m", type=int, default=1)
    p_bound.add_argument("--chain", type=int_list, default=report.TOTAL_ERROR_CHAIN)
    # Here --xi sets the margin of the bound constants; unset, it follows --cn
    # through analysis.constants_margin.
    p_bound.set_defaults(func=cmd_bound, xi=None)

    p_report = sub.add_parser("report", help="run the full claims catalog")
    p_report.add_argument("--only", type=id_list, default=None,
                          help="comma-separated claim ids to run; others skip")
    p_report.add_argument("--seed", type=int, default=catalog.random_seed)
    p_report.add_argument("--out", type=Path, default=Path("."))
    p_report.add_argument("--selftest-inject-fault", action="store_true",
                          help="deliberately corrupt one check to exercise the "
                               "violation path")
    p_report.set_defaults(func=cmd_report)

    return parser


def apply_config_file(argv: list[str]) -> list[str]:
    """Expand ``--config FILE`` into flag tokens right after the subcommand.

    ``--config FILE`` (or ``--config=FILE``) may stand before or after the
    subcommand, at most once; it is taken out, and the subcommand is then the
    first token.  Explicit command-line flags still win because argparse
    keeps the last occurrence of a scalar option.
    """
    argv = [part for tok in argv
            for part in (tok.split("=", 1) if tok.startswith("--config=") else [tok])]
    if argv.count("--config") > 1:
        raise ParameterError("--config given more than once")
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise ParameterError("--config needs a file path")
    path = Path(argv[idx + 1])
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParameterError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParameterError(f"cannot read config file {path}: not UTF-8 "
                             f"(byte {exc.start})") from exc
    tokens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"config line is not key=value: {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        tokens.extend([f"--{key}", value])
    rest = argv[:idx] + argv[idx + 2:]
    return rest[:1] + tokens + rest[1:]


def resolve_grid(args, kind: str = BINARY64):
    if args.kmax is None:
        return analysis.refinement_chain([args.imax], args.cn, args.c,
                                         t_max=args.tmax, kind=kind)[0]
    return build_grid(0, 1, args.tmax, args.imax, args.kmax, kind)


def pick_problem(args):
    if args.problem == "default":
        return dataclasses.replace(default_problem(), c=args.c)
    if args.problem == "standing":
        if args.scalar == EXACT:
            raise ParameterError("--problem standing has no exact rational samples "
                                 "(its datum is a sine); use it with --scalar binary64")
        return standing_wave(args.m, float(args.c)).as_problem()
    from .problem import WaveProblem
    return WaveProblem(c=args.c, u0=None, u1=None, s=None)


def write_lines(path: Path, lines) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, obj) -> None:
    write_lines(path, [json.dumps(obj, indent=2, sort_keys=True)])


def csv_scalar(v) -> str:
    return scalar_json(v) if isinstance(v, Fraction) else repr(v)


def field_csv_lines(run):
    g = run.grid
    hex_column = g.kind == BINARY64
    yield "i,k,value,value_hex" if hex_column else "i,k,value"
    for i in range(g.i_max + 1):
        for k in range(g.k_max + 1):
            v = run.value(i, k)
            yield f"{i},{k},{csv_scalar(v)}" + (f",{v.hex()}" if hex_column else "")


def grid_summary(g) -> dict:
    return {
        "i_max": g.i_max, "k_max": g.k_max,
        "dx": scalar_json(g.dx), "dt": scalar_json(g.dt),
        "t_max": scalar_json(g.t_max),
    }


def cmd_solve(args) -> int:
    g = resolve_grid(args, args.scalar)
    prob = pick_problem(args)
    run = solve(prob, g, xi=args.xi)
    series = energy.energy_series(run)
    max_abs = run.max_abs()
    write_lines(args.out / "field.csv", field_csv_lines(run))
    summary = {
        "scalar": g.kind,
        "problem": args.problem,
        "grid": grid_summary(g),
        "cn": scalar_json(run.cn),
        "a": scalar_json(run.a),
        "cfl_satisfied": True,  # solve returns no run outside its margin
        "max_abs": scalar_json(max_abs),
        "energy_first": scalar_json(series.values[0]),
        "energy_min": scalar_json(min(series.values)),
        "energy_max": scalar_json(max(series.values)),
    }
    write_json(args.out / "summary.json", summary)
    print(f"solve: cn={float(run.cn)} max|p|={float(max_abs)} "
          f"-> {args.out / 'field.csv'}")
    return 0


def cmd_order(args) -> int:
    wave = standing_wave(args.m, float(args.c))
    grids = analysis.refinement_chain(args.chain, args.cn, float(args.c),
                                      t_max=float(args.tmax))
    fit = analysis.estimate_order(wave, grids, mode=args.mode, xi=args.xi)
    lines = ["dx,error"]
    lines += [f"{dx!r},{err!r}" for dx, err in fit.points]
    write_lines(args.out / "order.csv", lines)
    write_json(args.out / "order.json", {
        "mode": args.mode, "chain": args.chain, "cn": args.cn,
        "slope": fit.slope,
        "points": [{"dx": dx, "error": err} for dx, err in fit.points],
    })
    print(f"order[{args.mode}]: slope = {fit.slope:.4f} over chain {list(args.chain)}")
    return 0


def cmd_energy(args) -> int:
    g = resolve_grid(args, args.scalar)
    prob = pick_problem(args)
    run = solve(prob, g, xi=args.xi)
    series = energy.energy_series(run)
    gaps, failures = energy.lower_bound_failures(series, run.cn)
    violations = energy.check_energy_estimate(run, series)
    drift = series.drift()
    min_gap = math.nan if any(gap != gap for gap in gaps) else min(gaps)
    nonnegative = all(e >= 0 for _, e, _ in failures)
    write_lines(args.out / "energy.csv",
                ["k,energy"] + [f"{k},{csv_scalar(v)}" for k, v in enumerate(series.values)])
    write_json(args.out / "energy.json", {
        "scalar": g.kind,
        "grid": grid_summary(g),
        "cn": scalar_json(run.cn),
        "drift": scalar_json(drift),
        "drift_is_zero": drift == 0,
        "nonnegative": nonnegative,
        "lower_bound_min_gap": scalar_json(min_gap),
        "lower_bound_holds": all(gap >= 0 for _, _, gap in failures),
        "estimate_holds": not violations,
        "estimate_violations": violations,
    })
    print(f"energy: drift={float(drift)} nonneg={nonnegative} "
          f"estimate={'VIOLATED' if violations else 'ok'}")
    # Drift is not a check: it is nonzero for binary64 runs and runs with a source.
    return 1 if failures or violations else 0


def cmd_roundoff(args) -> int:
    g = resolve_grid(args, BINARY64)
    prob = dataclasses.replace(default_problem(), c=args.c)
    run = roundoff.shadow_solve(prob, g, xi=args.xi)
    worst_delta = roundoff.max_abs_delta(run)
    bound_rep = roundoff.check_global_bound(run)

    verdict = "skipped"
    mismatch = None
    if not args.no_reconstruction:
        mismatch = report.reconstruction_mismatch(run, run.a_exact)
        verdict = "exact-equal" if mismatch is None else "mismatch"

    write_json(args.out / "roundoff.json", {
        "grid": grid_summary(g),
        "a": {"binary64": scalar_json(run.float_run.a), "exact": scalar_json(run.a_exact)},
        "a_gap_ok": run.a_gap_ok,
        "range_ok": run.range_violation is None,
        "max_abs_value": float(run.float_run.max_abs()),
        "max_abs_local_error": scalar_json(float(worst_delta)),
        "local_bound": scalar_json(float(roundoff.LOCAL_BOUND)),
        "local_bound_ok": worst_delta <= roundoff.LOCAL_BOUND,
        "global_bound_ok": bound_rep.ok,
        "global_max_ratio": bound_rep.max_ratio,
        "norm_level_ok": bound_rep.norm_level_ok,
        "reconstruction": verdict if mismatch is None else
                          {"verdict": verdict, "first_mismatch": list(mismatch[:2])},
    })
    print(f"roundoff: max|delta|={float(worst_delta):.3e} "
          f"ratio={bound_rep.max_ratio:.3e} reconstruction={verdict}")
    failed = (report.local_bound_verdict(run, worst_delta)[0] == report.VIOLATED
              or report.global_bound_violation(bound_rep, [g.i_max, g.k_max]) is not None
              or mismatch is not None)
    return 1 if failed else 0


def cmd_fundamental(args) -> int:
    for flag, value in (("--depth", args.depth), ("--range", args.sweep),
                        ("--certificates", args.certificates)):
        if value < 0:
            raise ParameterError(f"{flag} must be nonnegative, got {value}")
    failures = []
    for a in args.a:
        table = fundamental.build_table(a, args.depth)
        failures += [(f"{form}-form", str(a), i, k)
                     for form, i, k in report.closed_form_failures(table)]
        failures += [("nonnegativity", str(a), i, k) for i, k in table.negative_entries()]
        failures += [("row-sum", str(a), k) for k, _ in report.row_sum_failures(table)]
    failures += [("binomial-identity", *t)
                 for t in fundamental.check_binomial_identity(args.sweep)]
    failures += [("shift-recurrence", *t)
                 for t in fundamental.check_zeilberger_recurrences(args.sweep)]
    checked, skipped, certificates = report.certificate_failures(
        random.Random(args.seed), args.certificates, args.sweep)
    failures += [("certificate", point, results) for point, results in certificates]
    counts = {
        "closed_form_points": len(args.a) * (args.depth + 1) ** 2,
        "row_sums": len(args.a) * (args.depth + 2),
        "identity_triples": report.triple_count(args.sweep),
        "certificates_checked": checked,
        "certificates_skipped": skipped,
        "all_pass": not failures,
    }

    write_json(args.out / "fundamental.json", {
        "depth": args.depth, "sweep": args.sweep,
        "a_values": [str(a) for a in args.a],
        "failures": [list(map(str, f)) for f in failures],
        **counts,
    })
    if failures:
        print(f"fundamental: {len(failures)} check(s) FAILED, first: {failures[0]}")
        return 1
    print(f"fundamental: all identity checks pass "
          f"(depth={args.depth}, sweep={args.sweep})")
    return 0


def cmd_bound(args) -> int:
    wave = standing_wave(args.m, float(args.c))
    tc = wave.taylor_constants()
    if not 0 < args.cn < 1:
        raise ParameterError(f"--cn must lie in (0, 1), got {args.cn}")
    xi = analysis.constants_margin(args.cn) if args.xi is None else args.xi
    if args.cn > 1 - xi:
        raise ParameterError(f"--cn must lie in (0, 1 - xi] = (0, {1 - xi}], got {args.cn}")
    consts = analysis.derive_constants(xi, tc.C3, tc.C4, tc.alpha3, tc.alpha4,
                                       float(args.c), float(args.tmax), 0.0, 1.0)
    measured = report.total_error_rows(wave, consts, args.chain, args.cn,
                                       t_max=float(args.tmax))
    rows = [{"i_max": imax, **row, "holds": holds}
            for imax, (row, holds) in zip(args.chain, measured)]
    holds = all(row["holds"] for row in rows)
    dt_star, bound_star = analysis.optimal_dt(consts, args.cn)
    write_json(args.out / "bound.json", {
        "taylor": {"alpha3": tc.alpha3, "C3": tc.C3, "alpha4": tc.alpha4, "C4": tc.C4},
        "constants": {
            "xi": consts.xi, "C2": consts.C2, "C_prime": consts.C_prime,
            "C_second": consts.C_second, "alpha_e": consts.alpha_e,
            "C_e": consts.C_e, "alpha_Delta": consts.alpha_Delta,
            "C_Delta": consts.C_Delta,
        },
        "rows": rows,
        "optimal": {"dt": dt_star, "bound": bound_star},
        "holds_everywhere": holds,
    })
    print(f"bound: holds={holds} optimal dt={dt_star:.3e}")
    return 0 if holds else 1


def cmd_report(args) -> int:
    cfg = ClaimConfig(random_seed=args.seed,
                      inject_wrong_a=args.selftest_inject_fault)
    rep = run_claims(cfg, only=args.only)
    text = rep.to_text()
    write_json(args.out / "claims.json", rep.to_dict())
    write_lines(args.out / "claims.txt", [text])
    write_json(args.out / "timings.json", rep.timings())
    print(text)
    return rep.exit_code


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(apply_config_file(argv))
        return args.func(args)
    except WavecheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
