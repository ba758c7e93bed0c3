"""Command-line interface.

Subcommands: ``mew`` (expected-score winners), ``mpw`` (winning-probability
winners), ``oracle`` (brute-force scores and win probabilities, small profiles
only), ``gen`` (synthetic profiles), ``bench`` (timing CSV).

Exit codes: 0 success, 1 input error, 2 resource-cap error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import bench as bench_mod
from .engine import mew, mew_parallel
from .errors import MewError, TooLarge, ValidationError
from .generators import GenSpec, KINDS, generate
from .mpw import STATE_CAP, mpw
from .oracle import oracle_expected_scores, oracle_mpw
from .profile_io import load_profile, save_profile
from .rules import parse_rule


def _add_profile_rule(p: argparse.ArgumentParser) -> None:
    p.add_argument("--profile", required=True, help="profile document path")
    p.add_argument("--rule", required=True,
                   help="plurality | veto | borda | k-approval:K | custom:s1,...,sm")
    p.add_argument("--output", choices=("table", "json"), default="table")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mewvote")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mew", help="most expected winner")
    _add_profile_rule(p)
    p.add_argument("--no-pruning", action="store_true")
    p.add_argument("--no-grouping", action="store_true")
    p.add_argument("--parallel", type=int, metavar="W", default=0,
                   help="worker processes, this one included (disables pruning, "
                        "not combined with --no-grouping; 0 = sequential)")

    p = sub.add_parser("mpw", help="most probable winner")
    _add_profile_rule(p)
    p.add_argument("--state-cap", type=int, default=STATE_CAP)

    p = sub.add_parser("oracle", help="brute-force expected scores and win probabilities")
    _add_profile_rule(p)

    p = sub.add_parser("gen", help="generate a synthetic profile")
    p.add_argument("kind", choices=KINDS)
    for f in dataclasses.fields(GenSpec)[1:]:  # after the kind; one not given is not passed on
        p.add_argument("--" + f.name.replace("_", "-"), type=float if f.type == "float" else int,
                       default=argparse.SUPPRESS,  # and a generated file's seed is always chosen
                       required=f.default is dataclasses.MISSING or f.name == "seed")
    p.add_argument("--out", required=True)

    p = sub.add_parser("bench", help="run timing benchmarks, emit CSV")
    p.add_argument("--spec", required=True, help="JSON file of benchmark runs")
    p.add_argument("--repeat", type=int, default=10)
    p.add_argument("--out", required=True, help="CSV output path, or - for stdout")

    return parser


def _print_scores(title: str, values: dict[str, float]) -> None:
    for name, value in values.items():
        print(f"{title}[{name}] = {value:.12g}")


def _load(args):
    """The profile and the rule a profile subcommand names."""
    profile = load_profile(args.profile)
    return profile, parse_rule(args.rule, profile.m)


def _cmd_mew(args) -> int:
    if args.parallel and args.no_grouping:  # mew_parallel always groups
        raise ValidationError("--parallel groups identical voters; drop --no-grouping")
    profile, rule = _load(args)
    if args.parallel:  # a negative count reaches mew_parallel, which refuses it
        result = mew_parallel(profile, rule, workers=args.parallel)
    else:
        result = mew(profile, rule, pruning=not args.no_pruning,
                     grouping=not args.no_grouping)
    if args.output == "json":
        print(json.dumps(dataclasses.asdict(result), indent=2))
    else:
        print("winners: " + " ".join(result.winners))
        _print_scores("expected_score", result.expected_scores)
        for name, (lo, hi) in result.bounds.items():
            print(f"bounds[{name}] = [{lo:.12g}, {hi:.12g}]")
        if result.pruned:
            print("pruned: " + " ".join(result.pruned))
        print(f"stats: voters={result.stats.voters} groups={result.stats.groups} "
              f"prunings={result.stats.prunings} seconds={result.stats.seconds:.6f}")
    return 0


def _cmd_mpw(args) -> int:
    profile, rule = _load(args)
    result = mpw(profile, rule, state_cap=args.state_cap)
    if args.output == "json":
        print(json.dumps(dataclasses.asdict(result), indent=2))
    else:
        print("winners: " + " ".join(result.winners))
        _print_scores("win_prob", result.win_probs)
    return 0


def _cmd_oracle(args) -> int:
    profile, rule = _load(args)
    ids = profile.candidates.ids
    scores = dict(zip(ids, oracle_expected_scores(profile, rule)))
    wins = dict(zip(ids, oracle_mpw(profile, rule)))
    if args.output == "json":
        print(json.dumps({"expected_scores": scores, "win_probs": wins}, indent=2))
    else:
        _print_scores("expected_score", scores)
        _print_scores("win_prob", wins)
    return 0


def _cmd_gen(args) -> int:
    spec = GenSpec(**{f.name: getattr(args, f.name) for f in dataclasses.fields(GenSpec)
                      if hasattr(args, f.name)})
    save_profile(generate(spec), args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_bench(args) -> int:
    with open(args.spec, encoding="utf-8") as fh:
        runs = bench_mod.parse_bench_spec(fh.read())
    rows = bench_mod.run_bench(runs, repeat=args.repeat)
    text = bench_mod.rows_to_csv(rows)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "mew": _cmd_mew,
    "mpw": _cmd_mpw,
    "oracle": _cmd_oracle,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MewError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
