#!/usr/bin/env python3
"""Record MEW and MPW results over a fixed profile matrix, or compare two such records.

  python3 scripts/differential.py [--quick] [--out results.json]
  python3 scripts/differential.py --compare A.json B.json

The matrix is every generator kind at m in {5, 8}, seeds 0-2, under
plurality, veto, 2-approval and Borda, with n in {6, 40} (``--quick``: n = 6
only), plus four hand-built one-voter profiles under plurality that raise
``CoverWidthExceeded``, ``Unsupported``, ``ZeroPosterior`` and ``TooLarge``.
Each case holds, for ``mew`` under all four pruning/grouping settings and for
``mew_parallel`` at 1, 2, 4 and 8 workers: the winners, the scores and the
bounds as ``float.hex`` strings, the pruned candidates, and the class name of
any error raised in their place.  Each plurality case also holds ``rows``:
every voter's ``rep_dispatch`` row of every candidate, in profile order, as
``float.hex`` strings, or the class name of the error the voter raises, and
the same rows from one list call per voter, ``rep_dispatch(list(range(m)),
voter, m)``, the call ``mew`` makes for a group.
Each m = 5, n = 6 case under plurality, veto and 2-approval, and each
hand-built case with m <= 4, also holds ``mpw``: the winners, ``win_probs``
as ``float.hex`` strings and ``worlds_explored``, or the error class.  So
both MPW routes run, rank marginals (plurality, veto) and completion
enumeration (2-approval).  Borda is left out, as its completions took minutes
over those cases, and so is n = 40, whose plurality cases took two minutes.

``--compare`` prints, for each run setting and field, whether the two records
are bit-identical there and otherwise the largest difference, plus each
record's count of bounds intervals with lo >= hi; the same verdict on each of
the two row records follows on stderr.  It exits 1 if any winner set, pruned set,
``worlds_explored`` or error class (of a run or of a voter's rows) differs,
or if the two matrices differ.  Run it with ``PYTHONPATH`` at the ``src`` of
the checkout to record.

Before recording, the script sets ``mewvote.engine.FORK_AFTER_S = 0``, so
``mew_parallel`` forks at once on every case, as it would on a large profile,
and the records compare forked results.  A checkout whose ``mew_parallel``
always forks ignores the attribute.
"""

import argparse
import json
import sys
from typing import Callable

import mewvote as mv
from mewvote.generators import KINDS
from mewvote.rep import rep_dispatch

RULES = ("plurality", "veto", "k-approval:2", "borda")
MPW_RULES = ("plurality", "veto", "k-approval:2")  # Borda's completions take minutes
RUNS = {
    "mew pruning=True grouping=True": lambda p, r: mv.mew(p, r),
    "mew pruning=True grouping=False": lambda p, r: mv.mew(p, r, grouping=False),
    "mew pruning=False grouping=True": lambda p, r: mv.mew(p, r, pruning=False),
    "mew pruning=False grouping=False":
        lambda p, r: mv.mew(p, r, pruning=False, grouping=False),
    "mew_parallel workers=1": lambda p, r: mv.mew_parallel(p, r, workers=1),
    "mew_parallel workers=2": lambda p, r: mv.mew_parallel(p, r, workers=2),
    "mew_parallel workers=4": lambda p, r: mv.mew_parallel(p, r, workers=4),
    "mew_parallel workers=8": lambda p, r: mv.mew_parallel(p, r, workers=8),
    "mpw": lambda p, r: mv.mpw(p, r),  # on the cases the module docstring names
}
# each run's (exact, float) fields: an exact field's difference fails the comparison
FIELDS = {**dict.fromkeys(RUNS, (("winners", "pruned", "error"), ("scores", "bounds"))),
          "mpw": (("winners", "worlds_explored", "error"), ("win_probs",))}


def record(result: mv.MewResult | mv.MpwResult) -> dict:
    if isinstance(result, mv.MpwResult):
        return {"winners": list(result.winners), "worlds_explored": result.worlds_explored,
                "error": None, "win_probs": {c: float.hex(p) for c, p in result.win_probs.items()}}
    return {"winners": list(result.winners), "pruned": list(result.pruned), "error": None,
            "scores": {c: float.hex(s) for c, s in result.expected_scores.items()},
            "bounds": {c: [float.hex(lo), float.hex(hi)]
                       for c, (lo, hi) in result.bounds.items()}}


def generated(kind: str, m: int, n: int, seed: int) -> Callable[[], mv.Profile]:
    # kind-specific parameters that leave each kind's observations partial
    return lambda: mv.generate(mv.GenSpec(kind=kind, m=m, n=n, p_max=0.3, k=3, t=2, b=1,
                                          seed=seed))


def one_voter(m: int, model, observation) -> Callable[[], mv.Profile]:
    candidates = mv.CandidateSet(tuple(f"c{i + 1}" for i in range(m)))
    return lambda: mv.Profile(candidates, [mv.Voter(model, observation)])


# Each (m, model, observation) raises the error it is named after on at least one run setting.
ERROR_CASES = {
    "error CoverWidthExceeded: mallows m=24, c1..c7 above c24":
        (24, mv.MallowsModel(tuple(range(24)), 0.5), mv.PartialOrder([(i, 23) for i in range(7)])),
    "error Unsupported: selection model given a chain":
        (4, mv.mallows_to_rsm(mv.MallowsModel((0, 1, 2, 3), 0.5)), mv.PartialChain((1, 0))),
    "error ZeroPosterior: rim ranking c1 c2 c3 given c3 on top":
        (3, mv.RimModel((0, 1, 2), [[1], [0, 1], [0, 0, 1]]), mv.TruncatedRanking((2,), ())),
    "error TooLarge: uniform m=19, c1 above the rest":
        (19, None, mv.PartialOrder([(0, i) for i in range(1, 19)])),
}


def voter_rows(voter: mv.Voter, m: int, listed: bool) -> list | str:
    """The voter's rows from one call per candidate, or from one list call."""
    try:
        rows = rep_dispatch(list(range(m)), voter, m) if listed else \
            [rep_dispatch(c, voter, m) for c in range(m)]
        return [[float.hex(p) for p in row] for row in rows]
    except Exception as exc:
        return type(exc).__name__


def run_case(make_profile: Callable[[], mv.Profile], rule_spec: str, with_mpw: bool) -> dict:
    names = [name for name in RUNS if with_mpw or name != "mpw"]
    try:
        profile = make_profile()
        rule = mv.parse_rule(rule_spec, profile.m)
    except Exception as exc:  # the generator's own error is recorded for every run
        return {name: {"error": type(exc).__name__} for name in names}
    runs = {}
    if rule_spec == "plurality":  # the rows do not depend on the rule
        runs["rows"] = {field: [voter_rows(v, profile.m, listed) for v in profile.voters]
                        for field, listed in (("voters", False), ("lists", True))}
    for name in names:
        try:
            runs[name] = record(RUNS[name](profile, rule))
        except Exception as exc:
            runs[name] = {"error": type(exc).__name__}
    return runs


def run_matrix(quick: bool) -> dict:
    cases = {f"{kind} m={m} n={n} seed={seed} {rule}":
             (generated(kind, m, n, seed), rule, m == 5 and n == 6 and rule in MPW_RULES)
             for kind in KINDS for m in (5, 8) for n in ((6,) if quick else (6, 40))
             for seed in range(3) for rule in RULES}
    cases.update({f"{name} plurality": (one_voter(*voter), "plurality", voter[0] <= 4)
                  for name, voter in ERROR_CASES.items()})
    return {key: run_case(*case) for key, case in cases.items()}


def inverted(doc: dict) -> int:
    return sum(float.fromhex(lo) >= float.fromhex(hi) for case in doc.values()
               for run in case.values() for lo, hi in run.get("bounds", {}).values())


def flat(field: str, values: dict | None) -> dict:
    """A scores or win_probs map as it is, a bounds map as one entry per interval end."""
    if field != "bounds" or not values:
        return values or {}
    return {(c, end): v for c, pair in values.items() for end, v in zip(("lo", "hi"), pair)}


def compare(a: dict, b: dict) -> int:
    if a.keys() != b.keys():
        print(f"the matrices differ: {len(a.keys() ^ b.keys())} cases in one record only")
        return 1
    failed = False
    for name, (exact, floats) in FIELDS.items():
        for field in (*exact, *floats):
            values = [(case.get(name, {}).get(field), b[key].get(name, {}).get(field))
                      for key, case in a.items()]
            differing = sum(x != y for x, y in values)
            if not differing:
                verdict = "bit-identical"
            elif field in exact:
                verdict, failed = f"DIFFERS in {differing} cases", True
            else:
                pairs = [(flat(field, x), flat(field, y)) for x, y in values]
                largest = max((abs(float.fromhex(x[c]) - float.fromhex(y[c]))
                               for x, y in pairs for c in x.keys() & y.keys()), default=0.0)
                verdict = f"largest difference {largest:.3g}"
                moved = sum(x.keys() != y.keys() for x, y in pairs)
                if moved:
                    verdict += f"; the candidates held differ in {moved} cases"
            print(f"{name:34} {field:8} {verdict}")
    print(f"bounds intervals with lo >= hi: {inverted(a)} in A, {inverted(b)} in B")
    return int(compare_rows(a, b) or failed)


# each row record under a case's ``rows``, and its name in the verdict
ROW_RECORDS = {"voters": "rep_dispatch rows", "lists": "rep_dispatch list rows"}


def compare_rows(a: dict, b: dict) -> bool:
    """Print the verdict on each recorded row record to stderr; whether a
    voter's error class differs in either."""
    failed = False
    for field, label in ROW_RECORDS.items():
        missing = [side for side, doc in (("A", a), ("B", b))
                   if not any(field in case.get("rows", {}) for case in doc.values())]
        if missing:  # a record made before the field existed
            print(f"{label:34} not recorded in {' and '.join(missing)}", file=sys.stderr)
            continue
        pairs = [(case.get("rows", {}).get(field, ()), b[key].get("rows", {}).get(field, ()))
                 for key, case in a.items()]
        largest, errors = 0.0, 0
        for xs, ys in pairs:
            for x, y in zip(xs, ys):
                if isinstance(x, str) or isinstance(y, str):
                    errors += x != y
                else:
                    largest = max([largest] + [abs(float.fromhex(p) - float.fromhex(q))
                                               for rx, ry in zip(x, y) for p, q in zip(rx, ry)])
        verdict = "bit-identical" if all(x == y for x, y in pairs) \
            else f"largest difference {largest:.3g}"
        if errors:
            verdict += f"; the error class differs for {errors} voters"
        print(f"{label:34} {verdict}", file=sys.stderr)
        failed = failed or bool(errors)
    return failed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--quick", action="store_true", help="n = 6 only")
    parser.add_argument("--out", default="-", help="JSON file to write (default: stdout)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two recorded JSON files instead of recording")
    args = parser.parse_args()
    if args.compare:
        docs = []
        for path in args.compare:
            with open(path) as fh:
                docs.append(json.load(fh))
        sys.exit(compare(*docs))
    mv.engine.FORK_AFTER_S = 0  # every mew_parallel run deals its case to forked workers
    text = json.dumps(run_matrix(args.quick), indent=1, sort_keys=True)
    if args.out == "-":
        print(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")


if __name__ == "__main__":
    main()
