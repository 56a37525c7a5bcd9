"""Span tracing from outside the program.

The benchmark measures each layer by replacing the public functions the
drivers call, as bound in the calling module, with a wrapper that records
one span per call: name, start, end and the span that was open on the same
thread when it started (its parent).  Spans stay in memory and are written
out when the run ends.  A layer's self time is its duration minus the time
its child spans cover; children run on the parent's thread, one after the
other, so that is the sum of their durations.

A wrapper may also carry a *probe*: a function reading cumulative counters
of the wrapped call's receiver (engine path counters, plan arena builds,
Fig 3 category seconds).  Their change across the call is stored on the
span, so counters and times are summed over the same window.  Probe keys
starting with ``gauge.`` are levels (arena bytes), stored as read after the
call and summarized by their maximum.

Wrappers cost one attribute check when the tracer is disabled; they are
installed only by a traced run (or the traced daemon entry point).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Callable, Iterable, Optional

_SENTINEL = object()


class Span:
    __slots__ = ("name", "start", "end", "parent", "child", "counts")

    def __init__(self, name: str, start: float, parent: Optional["Span"]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child = 0.0  # seconds covered by child spans
        self.counts: Optional[dict] = None


class Tracer:
    """Records spans around wrapped callables; see the module docstring."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def wrap(self, owner, attr: str, name: str,
             probe: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (a module function or a class method) with
        a traced wrapper.  ``probe(args, kwargs) -> dict`` reads cumulative
        counters before and after each call."""
        original = getattr(owner, attr)
        saved = owner.__dict__.get(attr, _SENTINEL)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack = tracer._stack()
            span = Span(name, 0.0, stack[-1] if stack else None)
            before = probe(args, kwargs) if probe is not None else None
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span.end = end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child += end - span.start
                if before is not None:
                    after = probe(args, kwargs)
                    span.counts = {
                        k: v if k.startswith("gauge.") else v - before[k]
                        for k, v in after.items()
                    }
                tracer.spans.append(span)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, saved))

    def restore(self) -> None:
        """Put every wrapped attribute back."""
        for owner, attr, saved in reversed(self._patches):
            if saved is _SENTINEL:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)
        self._patches.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------- output

    def records(self) -> list[dict]:
        """Spans as plain records, ordered by start, parents by index."""
        spans = sorted(self.spans, key=lambda s: s.start)
        index = {id(s): k for k, s in enumerate(spans)}
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": -1 if s.parent is None else index[id(s.parent)],
                "self": (s.end - s.start) - s.child,
                "counts": s.counts or {},
            }
            for s in spans
        ]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.records(), fh)


def summarize(records: Iterable[dict], t0: float = float("-inf"),
              t1: float = float("inf")) -> dict:
    """Per span name: calls, total and self seconds, and summed probe
    counts, over the spans that start inside ``[t0, t1)``."""
    out: dict[str, dict] = {}
    for r in records:
        if not t0 <= r["start"] < t1:
            continue
        agg = out.setdefault(
            r["name"], {"calls": 0, "total": 0.0, "self": 0.0, "counts": {}}
        )
        agg["calls"] += 1
        agg["total"] += r["end"] - r["start"]
        agg["self"] += r["self"]
        for k, v in r["counts"].items():
            have = agg["counts"].get(k, 0)
            agg["counts"][k] = max(have, v) if k.startswith("gauge.") else have + v
    return out


def nesting_errors(records: list[dict], slack: float = 1e-9) -> list[str]:
    """Spans that start or end outside their parent, or whose self time is
    negative (beyond float rounding ``slack`` seconds)."""
    errors = []
    for k, r in enumerate(records):
        if r["self"] < -slack:
            errors.append(f"span {k} ({r['name']}) self time {r['self']}")
        p = r["parent"]
        if p >= 0:
            parent = records[p]
            if r["start"] < parent["start"] or r["end"] > parent["end"]:
                errors.append(
                    f"span {k} ({r['name']}) outside parent {p} "
                    f"({parent['name']})"
                )
    return errors


# ------------------------------------------------------------- the layers

FIG3_CATEGORIES = ("GEMM", "TANH", "SLICE", "CUSTOM", "Others")


def _engine_counts(args, kwargs) -> dict:
    engine = args[0]
    return {
        "batch.gathers": engine.stage_gathers,
        "batch.identity": engine.stage_identity,
        "batch.ghost_stacked": engine.ghost_stacked_batches,
    }


def _plan_counts(args, kwargs) -> dict:
    plan = args[0]
    out = {
        "plan.arena_builds": plan.stats.arena_builds,
        "gauge.arena_bytes": plan.arena_nbytes(),
    }
    session = kwargs.get("session")
    if session is not None and session.profile:
        by_cat = session.stats.by_category()
        for cat in FIG3_CATEGORIES:
            out["cat." + cat] = by_cat.get(cat, 0.0)
        out["plan.flops"] = session.stats.total_flops()
    return out


def _backend_counts(args, kwargs) -> dict:
    return {"backend.evals": args[0].evaluations}


def install_layers(tracer: Tracer) -> Tracer:
    """Wrap the public functions each driver calls into, as bound in the
    calling module, under their layer names.  ``step`` spans are the MD
    step roots the layer coverage is measured against."""
    from repro.dp import batch
    from repro.dp.backend import ForceBackend
    from repro.md import neighbor, simulation
    from repro.md.integrators import VelocityVerlet
    from repro.parallel import decomp, driver
    from repro.serving import protocol
    from repro.tfmini.plan import ExecutionPlan

    w = tracer.wrap
    w(simulation.Simulation, "step_once", "step")
    w(driver.DistributedEnsembleSimulation, "_step", "step")
    # md.neighbor: NeighborList.build calls neighbor_pairs from its own
    # module; the distributed driver imported it into its namespace.
    w(neighbor, "neighbor_pairs", "neighbor")
    w(driver, "neighbor_pairs", "neighbor")
    w(neighbor.NeighborList, "maybe_rebuild", "nbcheck")
    w(ForceBackend, "evaluate", "backend", probe=_backend_counts)
    w(batch.BatchedEvaluator, "evaluate_batch", "stage", probe=_engine_counts)
    w(batch, "format_neighbors", "format")
    w(batch, "environment_op", "env")
    w(ExecutionPlan, "run_list", "plan", probe=_plan_counts)
    # The distributed driver integrates in its own per-rank kick methods.
    w(VelocityVerlet, "first_half", "integrate.first")
    w(VelocityVerlet, "second_half", "integrate.second")
    w(driver.DistributedSimulation, "_first_half_kick", "integrate.first")
    w(driver.DistributedSimulation, "_second_half_kick", "integrate.second")
    dd = decomp.DomainDecomposition
    w(dd, "forward_exchange", "dd.comm.forward")
    w(dd, "reverse_exchange", "dd.comm.reverse")
    w(dd, "gather_system", "dd.migrate.gather")
    w(dd, "assign_atoms", "dd.migrate.assign")
    w(dd, "build_ghost_lists", "dd.migrate.ghosts")
    w(protocol, "encode_frame", "wire.encode")
    w(protocol, "decode_payload", "wire.decode")
    return tracer


# ------------------------------------------------------ per-layer metrics


def self_ms(summary: dict, prefix: str, n: int) -> float:
    """Self milliseconds per unit of work (``n`` steps, requests, ...) of
    every span named ``prefix`` or ``prefix.<part>``."""
    total = sum(
        agg["self"]
        for name, agg in summary.items()
        if name == prefix or name.startswith(prefix + ".")
    )
    return 1e3 * total / n if n else 0.0


def calls(summary: dict, name: str) -> int:
    return summary.get(name, {}).get("calls", 0)


def counted(summary: dict, name: str, key: str):
    return summary.get(name, {}).get("counts", {}).get(key, 0)


def plan_metrics(summary: dict, n: int, atoms: int) -> dict:
    """The Fig 3 split of plan time per unit of work, computed GFLOP/s and
    arena bytes per atom, from the ``plan`` spans and their probes."""
    plan_s = summary.get("plan", {}).get("self", 0.0)
    out = {"plan.ms": self_ms(summary, "plan", n)}
    for cat in FIG3_CATEGORIES:
        sec = counted(summary, "plan", "cat." + cat)
        out[f"plan.{cat.lower()}_ms"] = 1e3 * sec / n if n else 0.0
    flops = counted(summary, "plan", "plan.flops")
    out["plan.gflops"] = flops / plan_s / 1e9 if plan_s else 0.0
    out["plan.arena_builds"] = counted(summary, "plan", "plan.arena_builds")
    arena = counted(summary, "plan", "gauge.arena_bytes")
    out["plan.arena_bytes_per_atom"] = arena / atoms if atoms else 0.0
    return out
