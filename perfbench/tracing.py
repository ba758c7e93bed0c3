"""Per-layer counters for the traced run.

``Tracer.install`` replaces the module-level names through which ``engine``
and ``mpw`` call into the solver and preference layers with timing wrappers.
It is only ever called in a forked child that exits after the phase, so the
wrappers are never removed and never reach an untimed or untraced phase.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import mewvote as mv

# the package re-exports the functions ``mew`` and ``mpw`` under their module names
engine = importlib.import_module("mewvote.engine")
mpw_module = importlib.import_module("mewvote.mpw")

_MODEL = {type(None): "uniform", mv.MallowsModel: "mallows", mv.RimModel: "rim",
          mv.RsmRankingModel: "rsm"}
_OBSERVATION = {type(None): "none", mv.PartialOrder: "poset",
                mv.PartitionedPreference: "partitioned", mv.PartialChain: "chain",
                mv.TruncatedRanking: "truncated"}


def shape(voter: mv.Voter) -> str:
    """The input's (model, observation) type, e.g. ``uniform_poset``."""
    return f"{_MODEL[type(voter.model)]}_{_OBSERVATION[type(voter.observation)]}"


class Tracer:
    def __init__(self):
        self.rep_calls: dict[str, int] = defaultdict(int)
        self.rep_s: dict[str, float] = defaultdict(float)
        self.inputs_seen: set = set()
        self.first: list[float] = []
        self.repeat: list[float] = []
        self.rank_bounds_calls = 0
        self.rank_bounds_s = 0.0
        self.deltas_s = 0.0
        self.support_size = 0

    def install(self) -> None:
        rep_dispatch, rank_bounds = engine.rep_dispatch, engine.rank_bounds
        mpw_rep, voter_support = mpw_module.rep_dispatch, mpw_module.voter_support

        def traced_rep(c, voter, m, **kw):
            t = time.perf_counter()
            out = rep_dispatch(c, voter, m, **kw)
            dt = time.perf_counter() - t
            s = shape(voter)
            self.rep_calls[s] += 1
            self.rep_s[s] += dt
            # the uniform-poset table is shared by every poset with the same closure
            key = voter.observation.closure if s == "uniform_poset" else voter.group_key()
            (self.repeat if key in self.inputs_seen else self.first).append(dt)
            self.inputs_seen.add(key)
            return out

        def traced_rank_bounds(c, structure, m):
            t = time.perf_counter()
            out = rank_bounds(c, structure, m)
            self.rank_bounds_s += time.perf_counter() - t
            self.rank_bounds_calls += 1
            return out

        def traced_mpw_rep(c, voter, m, **kw):
            t = time.perf_counter()
            out = mpw_rep(c, voter, m, **kw)
            self.deltas_s += time.perf_counter() - t
            self.support_size += int(out[0] > 0.0)  # MPW's plurality route reads rank 1
            return out

        def traced_support(voter, m, **kw):
            t = time.perf_counter()
            out = voter_support(voter, m, **kw)
            self.deltas_s += time.perf_counter() - t
            self.support_size += len(out)
            return out

        engine.rep_dispatch = traced_rep
        engine.rank_bounds = traced_rank_bounds
        mpw_module.rep_dispatch = traced_mpw_rep
        mpw_module.voter_support = traced_support

    def counters(self) -> dict:
        return {
            "rep_calls": dict(self.rep_calls), "rep_s": dict(self.rep_s),
            "first": self.first, "repeat": self.repeat,
            "rank_bounds_calls": self.rank_bounds_calls, "rank_bounds_s": self.rank_bounds_s,
            "deltas_s": self.deltas_s, "support_size": self.support_size,
        }
