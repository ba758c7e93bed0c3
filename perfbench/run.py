#!/usr/bin/env python3
"""Layered cold/warm benchmark of mewvote's MEW and MPW solvers.

  python3 perfbench/run.py --workload poset-table --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --quick        # all four workloads, tiny sizes, all checks

One workload per process.  Without ``--workload`` every workload runs in a
fresh Python process of its own.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  The exit code is non-zero when any output check fails.
See README.md beside this file for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from multiprocessing import get_context
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
WORKLOADS = ("poset-table", "model-dp", "closed-form-bulk")
WORKERS = 2
SETUP_EVERY = 4  # rounds per set-up sample; the rounds in between reuse its inputs
MPW_FORKS = 2    # MPW phases per round
SHAPES = ("uniform_poset", "uniform_none", "uniform_partitioned", "uniform_chain",
          "uniform_truncated", "mallows_poset", "mallows_truncated", "rim_none")
END_TO_END = {"setup_s": "s", "mew_cold_s": "s", "mew_warm_s": "s", "mew_par_s": "s",
              "mpw_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "engine.self_s": "s", "engine.solver_calls": "count", "engine.call_share": "ratio",
    "engine.groups": "count", "engine.prunings": "count", "engine.par_speedup": "ratio",
    "rep.s": "s", "rep.calls": "count",
    "rep.first_s": "s", "rep.repeat_s": "s",
    **{f"rep.{s}.calls": "count" for s in SHAPES},
    "rep.uniform_poset.distinct": "count",
    "preferences.rank_bounds_s": "s", "preferences.rank_bounds_calls": "count",
    "profile_io.load_s": "s", "profile_io.doc_bytes": "bytes",
    "generators.s": "s",
    "mpw.deltas_s": "s", "mpw.convolve_s": "s", "mpw.states_total": "count",
    "mpw.states_final": "count", "mpw.support_size": "count",
    "trace.overhead_s": "s",
}

_FORK = get_context("fork")


def _import_package():
    """Import mewvote from this checkout's sources, and nowhere else."""
    if not (SRC / "mewvote" / "__init__.py").is_file():
        sys.exit(f"perfbench: no mewvote sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mewvote

    if Path(mewvote.__file__).resolve().parent != SRC / "mewvote":
        sys.exit(f"perfbench: imported mewvote from {mewvote.__file__}, not {SRC}")
    return mewvote


# ---------------------------------------------------------------------------
# Timed phases.  Each runs in a forked child of a process that has solved
# nothing, so every first solve in a phase is cold.


def _child(send, fn, args):
    try:
        send.send(fn(*args))
    except BaseException:
        send.send({"error": traceback.format_exc()})
    finally:
        send.close()


def _fork(fn, *args):
    sys.stdout.flush()
    sys.stderr.flush()
    recv, send = _FORK.Pipe(duplex=False)
    proc = _FORK.Process(target=_child, args=(send, fn, args))
    proc.start()
    send.close()
    try:
        out = recv.recv()
    except EOFError:
        out = {"error": f"phase process exited with code {proc.exitcode}"}
    finally:
        recv.close()
        proc.join()
    if "error" in out:
        raise RuntimeError(f"{fn.__name__} failed:\n{out['error']}")
    return out


def _op(fn, *args, **kw):
    """One timed operation; a raised error counts as a failed operation."""
    t = time.perf_counter()
    try:
        res = fn(*args, **kw)
    except Exception:  # the run goes on and reports the failure in ``failed``
        traceback.print_exc()
        res = None
    return res, time.perf_counter() - t


def _pass(fn, cases, **kw):
    """One timed pass of ``fn`` over the cases: (results, seconds per case)."""
    gc.collect()  # every pass starts from the same collector state
    timed = [_op(fn, case.profile, case.rule, **kw) for case in cases]
    return [res for res, _ in timed], [dt for _, dt in timed]


def _mew_phase(cases, traced, warm_passes):
    """A cold pass, then warm passes in the same process."""
    import mewvote as mv
    import tracing

    tracer = tracing.Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    passes = [_pass(mv.mew, cases) for _ in range(1 + warm_passes)]
    return {"results": [results for results, _ in passes],  # per pass, per case
            "cold": passes[0][1],
            "warm": [times for _, times in passes[1:]],
            "wall_s": sum(sum(times) for _, times in passes),
            "trace": tracer.counters() if tracer is not None else None}


def _par_phase(cases, workers):
    import mewvote as mv

    results, times = _pass(mv.mew_parallel, cases, workers=workers)
    return {"results": results, "times": times, "s": sum(times)}


def _mpw_phase(cases, traced):
    import mewvote as mv
    import tracing

    tracer = tracing.Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    results, times = _pass(mv.mpw, cases)
    return {"results": results, "times": times, "s": sum(times),
            "trace": tracer.counters() if tracer is not None else None}


@dataclasses.dataclass
class Inputs:
    setup_s: float
    mew_set: object    # workloads.Built
    mpw_set: object


@dataclasses.dataclass
class Round:
    mew: dict
    par: dict
    mpw: list
    par1: dict | None


def _import_seconds() -> float:
    """Wall time for a fresh interpreter to import the package."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c",
                    f"import sys; sys.path.insert(0, {str(SRC)!r}); import mewvote"],
                   check=True, timeout=120)
    return time.perf_counter() - t


def _setup(name: str, seed: int, quick: bool) -> Inputs:
    """What a fresh process pays before its first solve: importing the package
    (timed in a fresh interpreter) and building the inputs from the seed."""
    import workloads

    workload = workloads.WORKLOADS[name]
    import_s = _import_seconds()
    t = time.perf_counter()
    mew_set = workloads.build(workload.mew, seed, quick, str(WORKDIR))
    mpw_set = workloads.build(workload.mpw, seed, quick, str(WORKDIR))
    return Inputs(import_s + time.perf_counter() - t, mew_set, mpw_set)


def _round(name: str, inputs: Inputs, quick: bool, traced: bool) -> Round:
    """Every phase, each in fresh forks of this process, which never solves."""
    import workloads

    workload = workloads.WORKLOADS[name]
    mpw_forks, warm_passes = (1, 1) if quick else (MPW_FORKS, workload.warm_passes)
    mew_set, mpw_set = inputs.mew_set.cases, inputs.mpw_set.cases
    mew = _fork(_mew_phase, mew_set, traced, warm_passes)
    par = _fork(_par_phase, mew_set, WORKERS)
    mpw = [_fork(_mpw_phase, mpw_set, traced) for _ in range(mpw_forks)]
    par1 = _fork(_par_phase, mew_set, 1) if traced else None
    return Round(mew, par, mpw, par1)


# ---------------------------------------------------------------------------
# Metrics


def _samples(setups: list[Inputs], rounds: list[Round]) -> dict:
    """Every sample of each timed end-to-end metric, in run order.

    A set-up sample is one number; a sample of a solve metric is a pass over
    the workload's set, one time per case.
    """
    return {
        "setup_s": [i.setup_s for i in setups],
        "mew_cold_s": [r.mew["cold"] for r in rounds],
        "mew_warm_s": [times for r in rounds for times in r.mew["warm"]],
        "mew_par_s": [r.par["times"] for r in rounds],
        "mpw_s": [f["times"] for r in rounds for f in r.mpw],
    }


def _fastest_pass(passes: list[list[float]]) -> float:
    """The sum over cases of each case's fastest time in any pass.

    Other tenants of a shared host slow whole stretches of a run by up to half;
    a case's fastest time is the one least slowed, and each pass sees the case
    in the same state (cold, warm or in a fresh pool), so the cases' fastest
    times add up to the pass as it runs undisturbed.
    """
    return sum(min(times) for times in zip(*passes))


def _per_layer(inputs: Inputs, plain: Round, traced: Round) -> tuple[dict, dict]:
    """Per-layer metrics from the traced round, and seconds per input shape."""
    import mewvote as mv
    from tracing import shape

    mew_set, mpw_set = inputs.mew_set.cases, inputs.mpw_set.cases
    mew, mpw = traced.mew, traced.mpw[0]
    tc, tm = mew["trace"], mpw["trace"]
    solved = [(case, r) for results in mew["results"] for case, r in zip(mew_set, results)
              if r is not None]
    rep_s, rep_calls = sum(tc["rep_s"].values()), sum(tc["rep_calls"].values())
    mew_wall = mew["wall_s"]
    exact_slots = sum(r.stats.groups * case.profile.m for case, r in solved)
    closures = {v.observation.closure for case in mew_set for v in case.profile.voters
                if shape(v) == "uniform_poset"}

    final_states = 0
    for case, res in zip(mpw_set, mpw["results"]):
        if res is not None and case.profile.n > 1:  # states after the last voter
            prefix = mv.Profile(case.profile.candidates, case.profile.voters[:-1])
            final_states += res.worlds_explored - mv.mpw(prefix, case.rule).worlds_explored

    def mean(xs):
        return statistics.fmean(xs) if xs else 0.0

    out = {
        "engine.self_s": mew_wall - rep_s - tc["rank_bounds_s"],
        "engine.solver_calls": rep_calls,
        "engine.call_share": rep_calls / exact_slots,
        "engine.groups": sum(r.stats.groups for _, r in solved),
        "engine.prunings": sum(r.stats.prunings for _, r in solved),
        "engine.par_speedup": traced.par1["s"] / traced.par["s"],
        "rep.s": rep_s,
        "rep.calls": rep_calls,
        "rep.first_s": mean(tc["first"]),
        "rep.repeat_s": mean(tc["repeat"]),
        "rep.uniform_poset.distinct": len(closures),
        "preferences.rank_bounds_s": tc["rank_bounds_s"],
        "preferences.rank_bounds_calls": tc["rank_bounds_calls"],
        "profile_io.load_s": inputs.mew_set.load_s,
        "profile_io.doc_bytes": sum(len(d.encode()) for d in inputs.mew_set.docs),
        "generators.s": inputs.mew_set.generate_s,
        "mpw.deltas_s": tm["deltas_s"],
        "mpw.convolve_s": mpw["s"] - tm["deltas_s"],
        "mpw.states_total": sum(r.worlds_explored for r in mpw["results"] if r is not None),
        "mpw.states_final": final_states,
        "mpw.support_size": tm["support_size"],
        "trace.overhead_s": (mew_wall + mpw["s"]
                             - plain.mew["wall_s"]
                             - statistics.median(f["s"] for f in plain.mpw)),
    }
    for s in SHAPES:
        out[f"rep.{s}.calls"] = tc["rep_calls"].get(s, 0)
    return out, {s: tc["rep_s"].get(s, 0.0) for s in SHAPES}


# ---------------------------------------------------------------------------
# Checks


def _check(name: str, seed: int, inputs: Inputs, rounds: list[Round], wrong_score: bool):
    """Every timed result of every round against the checks, on the last set-up's
    inputs (every set-up builds the same inputs from the seed)."""
    import checks
    import mewvote as mv
    import workloads

    ck = checks.Checker()
    mew_set, docs = inputs.mew_set.cases, inputs.mew_set.docs
    mpw_set = inputs.mpw_set.cases
    twins = workloads.twins(workloads.WORKLOADS[name].twins, seed)
    passes = [results for r in rounds for results in r.mew["results"]]
    parallel = [f["results"] for r in rounds for f in (r.par, r.par1) if f is not None]
    mpw_runs = [f for r in rounds for f in r.mpw]
    if wrong_score:  # self-test of the checks: corrupt one timed expected score
        first = passes[0][0]
        cand, value = next(iter(first.expected_scores.items()))
        bad = dict(first.expected_scores, **{cand: value + 1e-3})
        passes[0][0] = dataclasses.replace(first, expected_scores=bad)

    for i, case in enumerate(mew_set):
        ref = mv.mew(case.profile, case.rule, pruning=False, grouping=False)
        timed = [results[i] for results in passes if results[i] is not None]
        par = [results[i] for results in parallel if results[i] is not None]
        checks.check_mew(ck, case, ref, timed, par)
        checks.check_rank_matrices(ck, case)
        if name == "poset-table":
            checks.check_poset_route(ck, case)
        if name == "model-dp":
            checks.check_truncated_route(ck, case)
        ck.expect(mv.serialize_profile(case.profile) == docs[i],
                  f"{case.label}: the loaded document does not re-serialize to the saved one")
    timed_mpw = [[f["results"][i] for f in mpw_runs if f["results"][i] is not None]
                 for i in range(len(mpw_set))]
    if name == "poset-table":
        for case, results in zip(mpw_set, timed_mpw):
            for res in results:
                checks.check_mpw(ck, case, res)
    else:  # the MPW set is itself a set of twins
        for case, results in zip(mpw_set, timed_mpw):
            checks.check_twin(ck, case, results)
    for case in twins:
        checks.check_twin(ck, case, [])
    return ck


# ---------------------------------------------------------------------------


def _ops(r: Round) -> tuple[int, int]:
    """Operations attempted and failed in one round."""
    phases = [r.par, r.par1] + r.mpw
    results = ([x for results in r.mew["results"] for x in results]
               + [x for f in phases if f is not None for x in f["results"]])
    return len(results), sum(1 for x in results if x is None)


def run_workload(args) -> int:
    mv = _import_package()
    import numpy as np

    setups: list[Inputs] = []
    rounds: list[Round] = []
    start = time.perf_counter()
    if args.trace:
        setups = [_setup(args.workload, args.seed, args.quick)]
        rounds = [_round(args.workload, setups[0], args.quick, False),
                  _round(args.workload, setups[0], args.quick, True)]
    else:
        while True:
            if len(rounds) % SETUP_EVERY == 0:
                setups.append(_setup(args.workload, args.seed, args.quick))
            rounds.append(_round(args.workload, setups[-1], args.quick, False))
            elapsed = time.perf_counter() - start
            if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
    measured_s = time.perf_counter() - start
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    extra = {}
    if args.trace:
        metrics, extra["rep_s_by_shape"] = _per_layer(setups[0], rounds[0], rounds[1])
        units = PER_LAYER
    else:
        samples = _samples(setups, rounds)
        metrics = {k: _fastest_pass(v) for k, v in samples.items() if k != "setup_s"}
        metrics["setup_s"] = statistics.median(samples["setup_s"])
        metrics["peak_rss_mb"] = peak_kb / 1024
        extra["samples"] = {k: [round(x, 4) if k == "setup_s" else round(sum(x), 4)
                                for x in v] for k, v in samples.items()}
        units = END_TO_END
    ck = _check(args.workload, args.seed, setups[-1], rounds, args.inject_wrong_score)
    attempted = sum(_ops(r)[0] for r in rounds)
    failed = sum(_ops(r)[1] for r in rounds)

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "quick": args.quick, "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "mewvote": mv.__version__, "workers": WORKERS, "rounds": len(rounds),
        "measured_s": round(measured_s, 3), "attempted": attempted, "failed": failed,
        "checks_passed": ck.passed, "checks_failed": len(ck.failures),
        "setups": len(setups),
        "mew_set": [c.label for c in setups[-1].mew_set.cases],
        "mpw_set": [c.label for c in setups[-1].mpw_set.cases],
        **extra,
    }
    print("report " + json.dumps(report))
    for failure in ck.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": ck.ok, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if ck.ok else 1


def run_all(args) -> int:
    """Every workload in a fresh Python process of its own."""
    status, summary = 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        cmd += ["--quick"] * args.quick + ["--inject-wrong-score"] * args.inject_wrong_score
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        print(f"== {name} (exit {proc.returncode})")
        print(proc.stdout, end="")
        status = status or proc.returncode
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        summary[name] = json.loads(last) if last.startswith("{") else None
    print(json.dumps({"exit": status, "workloads": summary}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure for about this long (whole rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced round")
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs: every workload and check in seconds")
    parser.add_argument("--inject-wrong-score", action="store_true",
                        help="corrupt one timed expected score (tests the checks)")
    args = parser.parse_args(argv)
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
