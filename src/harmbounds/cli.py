"""Command-line surface.

Subcommands: ``simulate``, ``identify``, ``bounds``, ``decide``,
``compare``, ``verify``.  Each takes only the options it reads (the table
in ``build_parser``); any other option is a usage error.  Reports are
plain-text tables with fixed 6-decimal formatting; ``--machine`` switches to
one record per line of tab-separated ``key:value`` pairs.  Output is
byte-identical for identical arguments, seeds and input files.

Exit codes: 0 success, 1 usage error (or failed verification sweep),
2 validation or file-format error, 3 identification impossible for the
request.  Any other exception is an internal fault and propagates.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .bounds import exp_bounds, fused_bounds, fused_lower_bound_s1
from .data import estimate_observed_law, read_dataset_file
from .decide import (CRITERIA, DecisionReport, counterfactual_report,
                     interventionist_report, policy_value, true_law_policies)
from .errors import (FileFormatError, GainEqualityError, GammaMissingError,
                     IncompatibleLawsError, LawValidationError,
                     NotPointIdentifiedError, PartialPolicyError, PositivityError)
from .identify import identified_means
from .laws import STRATA, observed_from_full, read_law_file
from .utility import UtilitySpec, read_utility_file

# ``simulate`` and ``verify`` load numpy, so only the commands that use them
# import them, and the law-mode and ``--data`` commands start without numpy.
# ``verify --props`` names the sweeps here for the same reason; a test keeps
# this equal to ``tuple(verify.PROPS)``.
_VERIFY_PROPS = ("s3", "s4", "s5", "sharpness", "fusion", "excess")

_USAGE_EXIT = 1
_FORMAT_EXIT = 2
_IDENT_EXIT = 3

_FORMAT_ERRORS = (FileFormatError, LawValidationError, GammaMissingError,
                  GainEqualityError, PartialPolicyError, UnicodeDecodeError, OSError)
_IDENT_ERRORS = (PositivityError, IncompatibleLawsError, NotPointIdentifiedError)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        raise UsageError(message)


def _fmt(x: float) -> float | str:
    return f"{x:.6f}"


def _machine_line(kind: str, **fields) -> str:
    parts = [f"kind:{kind}"]
    parts += [f"{k}:{v}" for k, v in fields.items()]
    return "\t".join(parts)


# Each option's add_argument keywords, written once; build_parser picks each subcommand's.
_OPTIONS = {
    "--law": dict(help="law specification file"),
    "--data": dict(help="dataset CSV file"),
    "--utility": dict(help="utility specification file"),
    "--seed": dict(type=int, default=0),
    "--n": dict(type=int, default=1000),
    "--smoothing": dict(type=float, default=0.0,
                        help="add-lambda smoothing for dataset estimation"),
    "--fuse": dict(action="store_true",
                   help="use the observational block in addition to the trial block"),
    "--use-astar": dict(action="store_true",
                        help="condition decisions on the intention variable (needs fusion)"),
    "--criterion": dict(choices=CRITERIA),
    "--trials": dict(type=int, default=100),
    "--oracle": dict(action="store_true",
                     help="emit hidden intention and stratum columns when simulating"),
    "--machine": dict(action="store_true",
                      help="tab-separated key:value records instead of tables"),
    "--tol": dict(type=float, default=1e-9,
                  help="model-compatibility slack for fused identification "
                       "(raise for finite-sample inputs)"),
    "--out": dict(help="write the CSV here instead of standard output"),
    "--props": dict(help=f"comma-separated subset of: {', '.join(_VERIFY_PROPS)}"),
}
_ANALYSIS_OPTIONS = ("--law", "--data", "--smoothing", "--fuse", "--tol", "--machine")


@functools.cache
def build_parser() -> _Parser:
    """The ``harmbounds`` parser, built once per process and shared by every :func:`main` call."""
    parser = _Parser(prog="harmbounds",
                     description="principal-stratum bounds and treatment choice "
                                 "from trial and observational data")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    # name, handler, help, required options, other options
    for name, func, text, required, optional in (
            ("simulate", cmd_simulate, "sample a dataset from a law",
             ("--law",), ("--seed", "--n", "--oracle", "--out")),
            ("identify", cmd_identify, "identified potential-outcome means",
             (), _ANALYSIS_OPTIONS),
            ("bounds", cmd_bounds, "stratum-probability intervals", (), _ANALYSIS_OPTIONS),
            ("decide", cmd_decide, "treatment choice under a criterion",
             ("--utility", "--criterion"), _ANALYSIS_OPTIONS + ("--use-astar",)),
            ("compare", cmd_compare, "outcome cost of stratum-level decision making",
             ("--law", "--utility"), ("--criterion", "--machine")),
            ("verify", cmd_verify, "brute-force property sweeps over random laws",
             (), ("--props", "--trials", "--seed", "--machine"))):
        p = sub.add_parser(name, help=text)
        for flag in required:
            p.add_argument(flag, required=True, **_OPTIONS[flag])
        for flag in optional:
            p.add_argument(flag, **_OPTIONS[flag])
        p.set_defaults(func=func)
    return parser


def _load_observed(args):
    if args.law and args.data:
        raise UsageError("give either --law or --data, not both")
    if args.law:
        return observed_from_full(read_law_file(args.law))
    if args.data:
        return estimate_observed_law(read_dataset_file(args.data), smoothing=args.smoothing)
    raise UsageError("an input is required: --law PATH or --data PATH")


def cmd_simulate(args) -> int:
    from . import simulate
    law = read_law_file(args.law)
    data = simulate.sample_dataset(law, args.n, args.seed, oracle=args.oracle)
    text = simulate.format_dataset_csv(data)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_identify(args) -> int:
    obs = _load_observed(args)
    means = identified_means(obs, fuse=args.fuse, tol=args.tol)
    lines = []
    for l in obs.levels:
        if args.machine:
            for a in (1, 0):
                lines.append(_machine_line("exp_mean", level=l, a=a, value=_fmt(means.exp_mean(l, a))))
            lines.append(_machine_line("ate", level=l, value=_fmt(means.ate(l))))
        else:
            lines.append(f"level {l}")
            lines.append(f"  E[Y^1 | l]          {_fmt(means.exp_mean(l, 1)):>12}")
            lines.append(f"  E[Y^0 | l]          {_fmt(means.exp_mean(l, 0)):>12}")
            lines.append(f"  ATE                 {_fmt(means.ate(l)):>12}")
        if means.has_fused:
            att = means.fused_mean(l, 1, 1) - means.fused_mean(l, 0, 1)
            atu = means.fused_mean(l, 1, 0) - means.fused_mean(l, 0, 0)
            if args.machine:
                lines.append(_machine_line("p_astar", level=l, value=_fmt(means.p_astar[l])))
                for a in (1, 0):
                    for astar in (1, 0):
                        lines.append(_machine_line("fused_mean", level=l, a=a, astar=astar,
                                                   value=_fmt(means.fused_mean(l, a, astar))))
                lines.append(_machine_line("att", level=l, value=_fmt(att)))
                lines.append(_machine_line("atu", level=l, value=_fmt(atu)))
            else:
                lines.append(f"  P(A*=1 | l)         {_fmt(means.p_astar[l]):>12}")
                for a in (1, 0):
                    for astar in (1, 0):
                        lines.append(f"  E[Y^{a} | A*={astar}, l]    "
                                     f"{_fmt(means.fused_mean(l, a, astar)):>12}")
                lines.append(f"  ATT                 {_fmt(att):>12}")
                lines.append(f"  ATU                 {_fmt(atu):>12}")
    print("\n".join(lines))
    return 0


def cmd_bounds(args) -> int:
    obs = _load_observed(args)
    lines = []
    for l in obs.levels:
        b = fused_bounds(obs, l, tol=args.tol) if args.fuse else exp_bounds(obs, l)
        if args.machine:
            for s in STRATA:
                lo, hi = b.interval(s)
                lines.append(_machine_line("stratum_bound", level=l, s=s, lo=_fmt(lo),
                                           hi=_fmt(hi), source=b.source))
            if args.fuse:
                lines.append(_machine_line("lower_bound_s1", level=l,
                                           value=_fmt(fused_lower_bound_s1(obs, l))))
            lines.append(_machine_line("p_range", level=l, lo=_fmt(b.p_lo), hi=_fmt(b.p_hi)))
        else:
            for s in STRATA:
                lo, hi = b.interval(s)
                lines.append(f"P(S={s}|{l}) ∈ [{_fmt(lo)}, {_fmt(hi)}] ({b.source})")
            if args.fuse:
                lines.append(f"four-term lower bound P(S=1|{l}) >= "
                             f"{_fmt(fused_lower_bound_s1(obs, l))}")
            lines.append(f"free parameter p = P(S=1|{l}) ∈ [{_fmt(b.p_lo)}, {_fmt(b.p_hi)}]")
    print("\n".join(lines))
    return 0


_VALUE_LABELS = {
    "eu_a1": "E[U | a=1]",
    "eu_a0": "E[U | a=0]",
    "gain_lo": None,  # folded into the interval line
    "gain_hi": None,
    "gain": "gain",
    "gain_mean": "gain mean",
}


def _render_report(report: DecisionReport, machine: bool) -> list[str]:
    lines = []
    if not machine:
        lines.append(f"criterion {report.criterion}")
    for cell in report.cells:
        if machine:
            fields: dict = {"level": cell.features[0]}
            if len(cell.features) > 1:
                fields["astar"] = cell.features[1]
            fields["action"] = cell.action
            for key, value in cell.values.items():
                fields[key] = _fmt(value)
            if cell.regret is not None:
                fields["regret_a1"] = _fmt(cell.regret[1])
                fields["regret_a0"] = _fmt(cell.regret[0])
            fields["tie"] = int(cell.tie)
            lines.append(_machine_line("decision", **fields))
            continue
        feat = f"l={cell.features[0]}"
        if len(cell.features) > 1:
            feat += f" a*={cell.features[1]}"
        lines.append(f"feature {feat}")
        lines.append(f"  action              {cell.action:>12}")
        if "gain_lo" in cell.values:
            interval = f"[{_fmt(cell.values['gain_lo'])}, {_fmt(cell.values['gain_hi'])}]"
            lines.append(f"  gain interval       {interval:>12}")
        for key, value in cell.values.items():
            label = _VALUE_LABELS.get(key, key)
            if label is None:
                continue
            lines.append(f"  {label:<20}{_fmt(value):>12}")
        if cell.regret is not None:
            lines.append(f"  regret a=1          {_fmt(cell.regret[1]):>12}")
            lines.append(f"  regret a=0          {_fmt(cell.regret[0]):>12}")
        lines.append(f"  tie                 {'yes' if cell.tie else 'no':>12}")
    return lines


def cmd_decide(args) -> int:
    spec = read_utility_file(args.utility)
    obs = _load_observed(args)
    if args.criterion == "interventionist":
        # Only the A*-conditioned report reads the fused means.
        means = identified_means(obs, fuse=args.use_astar, tol=args.tol)
        report = interventionist_report(means, spec, use_astar=args.use_astar)
    else:
        if args.use_astar:
            raise UsageError("--use-astar applies only to --criterion interventionist")
        if args.fuse:
            bmap = {l: fused_bounds(obs, l, tol=args.tol) for l in obs.levels}
        else:
            bmap = {l: exp_bounds(obs, l) for l in obs.levels}
        report = counterfactual_report(bmap, spec, args.criterion)
    print("\n".join(_render_report(report, args.machine)))
    return 0


def cmd_compare(args) -> int:
    criterion = args.criterion or "cf-point"
    if criterion == "interventionist":
        raise UsageError("compare needs a counterfactual --criterion: "
                         + ", ".join(c for c in CRITERIA if c != "interventionist"))
    law = read_law_file(args.law)
    spec = read_utility_file(args.utility)
    if not spec.has_gamma:
        raise GammaMissingError("compare needs a utility file with a GAMMA table")
    int_spec = UtilitySpec(mu=spec.mu, gamma=None)
    cf_policy, int_policy = true_law_policies(law, spec, int_spec, criterion)
    cf_value = policy_value(law, cf_policy)
    int_value = policy_value(law, int_policy)
    if args.machine:
        print(_machine_line("compare", cf_value=_fmt(cf_value), int_value=_fmt(int_value),
                            excess=_fmt(cf_value - int_value)))
    else:
        print(f"outcome-level policy value   {_fmt(int_value):>12}")
        print(f"stratum-level policy value   {_fmt(cf_value):>12}")
        print(f"excess outcome               {_fmt(cf_value - int_value):>12}")
    return 0


def cmd_verify(args) -> int:
    from .verify import PROPS, run_sweeps
    props = list(PROPS) if args.props is None else [p.strip() for p in args.props.split(",")]
    if "" in props:
        raise UsageError(f"--props has an empty entry: {args.props!r}")
    unknown = [p for p in props if p not in PROPS]
    if unknown:
        raise UsageError(f"unknown properties: {', '.join(unknown)} "
                         f"(available: {', '.join(PROPS)})")
    results = run_sweeps(props, args.trials, args.seed)
    lines = []
    all_ok = True
    for r in results:
        all_ok = all_ok and r.ok
        if args.machine:
            lines.append(_machine_line("verify", prop=r.name, passes=r.passes, trials=r.trials))
        else:
            lines.append(f"{r.name}: {r.passes}/{r.trials} pass")
        for note in r.notes:
            lines.append(f"  note: {note}")
        for failure in r.failures:
            lines.append(f"  FAIL: {failure}")
    print("\n".join(lines))
    return 0 if all_ok else 1


def _check_numeric_options(args) -> None:
    """Range-check the numeric options the subcommand takes; a missing one reads as in range."""
    for name in ("tol", "smoothing"):
        value = getattr(args, name, 0.0)
        if not (math.isfinite(value) and value >= 0.0):
            raise UsageError(f"--{name} must be finite and non-negative, got {value!r}")
    for name, least in (("n", 1), ("trials", 1), ("seed", 0)):
        value = getattr(args, name, least)
        if value < least:
            raise UsageError(f"--{name} must be at least {least}, got {value}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return _USAGE_EXIT
    try:
        _check_numeric_options(args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except _IDENT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _IDENT_EXIT
    except _FORMAT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _FORMAT_EXIT


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
