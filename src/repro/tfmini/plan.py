"""Compiled execution plans — tfmini's steady-shape fast path.

``Session.run`` pays a set of fixed costs on every call: a full
:func:`~repro.tfmini.graph.topo_sort` of the fetched DAG, an id-keyed dict
lookup per node input, and a fresh output allocation for every operator.
Those are exactly the per-step fixed costs the paper removes from the TF
execution graph (Sec 5.3 fusions, Table 3 custom ops), and in an MD loop
they are pure waste: the graph never changes and — because MD shapes are
steady — neither do the tensor shapes.

:func:`compile_plan` runs one compiler-style pipeline ONCE per graph
(ngraph's classic memory-planning playbook, applied to our tape):

1. **Tape build** — the DAG is topo-sorted and flattened into a dense tape
   of records ``(forward, input_slots, attrs, out_slot)`` indexed by
   integer *slots*.  Executing the plan is a flat loop over the tape — no
   sorting, no dict-by-id, no isinstance dispatch per node.
2. **Liveness scheduling** — records are reordered, data dependencies
   respected, by a greedy last-consumer-first list scheduler that shrinks
   value liveness ranges before allocation.  It is deterministic, and
   because tape records are pure (variables are updated *outside* the
   graph), the reordering never changes a result bit.
3. **Liveness analysis** — a record's output is born at its tape index
   and dies at its storage group's last reader.  Aliasing ops
   (``reshape``, ``item``, ...) whose outputs share their input's storage
   have their lifetimes unioned so recycling can never clobber a live
   view.
4. **Interference coloring** — at arena-build time (shapes are known after
   one warm run per feed-shape signature) the plan builds the interference
   graph over buffer-producing records (two interfere when their liveness
   ranges overlap) and colors it greedily; each color becomes ONE byte slab
   sized to its largest member, and every record's output buffer is a view
   into its color's slab.  Unlike the PR 3 FIFO recycler — which reused a
   buffer only for a later record with the *exact same shape and dtype* —
   coloring shares storage across shapes, so the arena footprint drops to
   roughly the peak live set.  The FIFO allocator's footprint is still
   simulated per arena (``BufferArena.fifo_nbytes``) as the regression
   baseline; the colored result is re-verified by the static plan checker
   (P101–P108) whenever ``REPRO_VERIFY_PLANS=1``/``verify=True`` is set.

Because shapes are steady, the plan owns a :class:`BufferArena` per
feed-shape signature: persistent per-record output buffers handed to the
destination-passing (``out=``) kernel variants registered in
:mod:`repro.tfmini.ops`.  Ops without an ``out=`` kernel fall back to
allocate-and-copy-into-slot (the slot buffer stays stable; only the op's
own temporary churns).

When a feed arrives with a new shape signature the plan re-plans
automatically: one extra "warm" run executes through the plain kernels,
records every output's shape/dtype, and builds a fresh colored arena for
that signature.  Previously-seen signatures keep their warm arenas, so
drivers alternating between batch shapes (R=1 MD steps interleaved with
R=8 serving batches) stop allocating once each shape has been seen — the
same policy as :class:`repro.dp.batch.ScratchPool`, now applied inside the
executor.

Numerical contract: a plan run is **bitwise identical** to ``Session.run``
on the same fetches and feeds — every ``out=`` kernel reproduces its
allocating twin bit-for-bit, and because records are pure, the result is
independent of the tape order.  ``Session.run`` remains the reference
oracle (``tests/test_tfmini_plan.py`` and ``tests/test_plan_pipeline.py``
assert the correspondence across the model zoo, fused and unfused graphs,
batched evaluation and a training step).

Profiling: pass the owning :class:`~repro.tfmini.executor.Session` to
:meth:`ExecutionPlan.run`; when ``session.profile`` is set the plan records
per-operator wall time, FLOPs and bytes into ``session.stats`` exactly like
``Session.run`` — the Fig-3 operator breakdown works unchanged on planned
execution.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Optional, Sequence

import numpy as np

from repro.tfmini.executor import _result_nbytes
from repro.tfmini.graph import Node, Variable, topo_sort
from repro.tfmini.ops import get_op, op_flops

_INF = 1 << 62

# Execution modes for tape records.
_MODE_OUT = 0  # destination-passing kernel into an arena buffer
_MODE_COPY = 1  # allocating kernel, result copied into a stable arena buffer
_MODE_ALIAS = 2  # output shares the input's storage; run as-is, union lifetimes

# Byte alignment for views carved out of a color's slab (covers every numpy
# dtype and keeps tuple parts cache-line separated).
_ALIGN = 64

# Ops whose forward may return a view of (or exactly) one of its inputs.
# They keep their zero-copy behavior under plans; the liveness pass unions
# their storage with their inputs' so a live view is never recycled over.
# Every other op runs through the copy fallback when it has no ``out=``
# kernel, which is alias-safe by construction (values are copied out of
# whatever the op returned).
ALIAS_OPS = frozenset({"reshape", "reshape_like", "item", "reduce_to_shape"})


@dataclass
class PlanStats:
    """Deterministic counters the plan tests and benchmarks assert on."""

    topo_sorts: int = 0  # graph traversals performed (1 per compile)
    arena_builds: int = 0  # warm runs: first sight of a feed-shape signature
    arena_evictions: int = 0  # warm arenas dropped by the max_arenas cap
    runs: int = 0  # total executions, warm and steady
    feed_allocs: int = 0  # plan-owned feed staging buffers allocated
    feed_evictions: int = 0  # feed buffers dropped by the store cap
    in_place_feeds: int = 0  # run feeds already staged in plan feed buffers


class _Record:
    """One operator application on the flattened tape."""

    __slots__ = (
        "node",
        "op",
        "forward",
        "forward_out",
        "input_slots",
        "attrs",
        "out_slot",
        "mode",
    )

    def __init__(self, node, forward, forward_out, input_slots, attrs, out_slot, mode):
        self.node = node
        self.op = node.op
        self.forward = forward
        self.forward_out = forward_out
        self.input_slots = input_slots
        self.attrs = attrs
        self.out_slot = out_slot
        self.mode = mode


class BufferArena:
    """Colored per-record output buffers for one feed-shape signature.

    ``buffers[i]`` is the destination for tape record ``i``: an ndarray
    view into one of the arena's color slabs, a tuple of views
    (multi-output kernels like ``tanh_fused``), or ``None`` for alias
    records and exotic outputs.  ``alloc_count`` counts color slabs and
    ``alloc_bytes`` their total footprint; both only ever grow at build
    time — a warmed plan performs zero arena allocations, which the
    benchmarks assert deterministically.  ``fifo_nbytes`` is the footprint
    the PR 3 FIFO shape-keyed recycler would have needed for the same tape
    and shapes — the baseline the coloring allocator is regression-tested
    against.  ``color_candidates`` records the byte total of every coloring
    candidate order tried (first-fit by size, first-fit in tape order,
    best-fit by size); ``alloc_bytes`` is their minimum.
    """

    __slots__ = ("signature", "buffers", "alloc_count", "alloc_bytes",
                 "fifo_nbytes", "color_candidates")

    def __init__(self, signature):
        self.signature = signature
        self.buffers: list = []
        self.alloc_count = 0
        self.alloc_bytes = 0
        self.fifo_nbytes = 0
        self.color_candidates: dict[str, int] = {}

    def _new(self, shape, dtype):
        buf = np.empty(shape, dtype)
        self.alloc_count += 1
        self.alloc_bytes += buf.nbytes
        return buf


def _schedule_tape(records: list, fetch_slots: Sequence[int]) -> list:
    """Stage 2: reorder tape records (data deps respected) before liveness.

    A greedy list scheduler: among ready records it picks the one retiring
    the most inputs (last-consumer-first), shrinking liveness ranges so the
    coloring allocator can overlap more buffers.  Ties break on the
    original tape index, so the order is deterministic.
    """
    n = len(records)
    if n <= 1:
        return records
    producer: dict[int, int] = {}
    for i, rec in enumerate(records):
        producer[rec.out_slot] = i
    deps: list[list[int]] = []
    users: list[list[int]] = [[] for _ in range(n)]
    for i, rec in enumerate(records):
        ds = sorted({producer[s] for s in rec.input_slots if s in producer})
        deps.append(ds)
        for d in ds:
            users[d].append(i)
    indeg = [len(ds) for ds in deps]
    pending_users = [len(users[i]) for i in range(n)]
    fetch_set = set(fetch_slots)
    ready = [i for i in range(n) if indeg[i] == 0]
    order: list[int] = []
    while ready:
        best = ready[0]
        best_key = None
        for i in ready:
            kills = 0
            for d in deps[i]:
                if pending_users[d] == 1 and records[d].out_slot not in fetch_set:
                    kills += 1
            key = (kills, -i)
            if best_key is None or key > best_key:
                best_key = key
                best = i
        ready.remove(best)
        order.append(best)
        for d in deps[best]:
            pending_users[d] -= 1
        for u in users[best]:
            indeg[u] -= 1
            if indeg[u] == 0:
                ready.append(u)
    if len(order) != n:  # cycles cannot happen on a topo-sorted tape
        raise RuntimeError("tape scheduler failed to order all records")
    return [records[i] for i in order]


def _analyze(records: list, fetch_slots: Sequence[int], n_slots: int):
    """Stage 3: liveness and alias groups on the scheduled tape.

    Returns ``(find, death)``: ``find`` maps a slot to its storage group's
    representative slot, ``death[root]`` is the last tape index reading the
    group (``_INF`` for fetched groups, -1 for never-read ones).
    """
    last_use = [-1] * n_slots
    for r_idx, rec in enumerate(records):
        for s in rec.input_slots:
            last_use[s] = r_idx  # records iterate in ascending order
    for s in fetch_slots:
        last_use[s] = _INF

    # Storage groups: alias outputs share their inputs' storage, so a
    # group dies only when its *last* member does.
    parent = list(range(n_slots))

    def find(s: int) -> int:
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    for rec in records:
        if rec.mode == _MODE_ALIAS:
            root = find(rec.out_slot)
            for s in rec.input_slots:
                parent[find(s)] = root
    death: dict[int, int] = {}
    for s in range(n_slots):
        r = find(s)
        d = last_use[s]
        if d > death.get(r, -1):
            death[r] = d
    return find, death


def _color_units(units: list):
    """Greedy interference coloring, best of three candidate orders.

    ``units`` rows are ``[birth, death, padded, ...]`` (tape-index ranges).
    Candidates: first-fit over decreasing size, first-fit in tape order,
    and best-fit (tightest compatible color) over decreasing size — the
    size-aware order that closes the PR 9 ROADMAP thread.  Returns
    ``(colors, assign, candidates)`` for the byte-minimal
    candidate; ``candidates`` maps candidate name -> total bytes, so the
    arena can prove the winner never regresses any single strategy.
    """

    def color_in(order, best_fit: bool):
        colors: list[list] = []  # [capacity, [unit indices]]
        assign = [0] * len(units)
        for ui in order:
            birth, dth, padded = units[ui][0], units[ui][1], units[ui][2]
            chosen = -1
            chosen_key = None
            for ci, (cap, members) in enumerate(colors):
                ok = True
                for mi in members:
                    mb, md = units[mi][0], units[mi][1]
                    if birth <= md and mb <= dth:
                        ok = False
                        break
                if not ok:
                    continue
                if not best_fit:
                    chosen = ci
                    break
                # Best fit: tightest color that already holds the unit,
                # else the one needing the least growth; ties on index.
                key = (0, cap - padded) if cap >= padded else (1, padded - cap)
                if chosen_key is None or key < chosen_key:
                    chosen_key = key
                    chosen = ci
            if chosen < 0:
                colors.append([padded, [ui]])
                assign[ui] = len(colors) - 1
            else:
                colors[chosen][0] = max(colors[chosen][0], padded)
                colors[chosen][1].append(ui)
                assign[ui] = chosen
        return sum(c[0] for c in colors), colors, assign

    by_size = sorted(range(len(units)),
                     key=lambda u: (-units[u][2], units[u][0]))
    results = {
        "first_fit_size": color_in(by_size, best_fit=False),
        "first_fit_tape": color_in(range(len(units)), best_fit=False),
        "best_fit_size": color_in(by_size, best_fit=True),
    }
    candidates = {name: r[0] for name, r in results.items()}
    best_name = min(results, key=lambda nm: (results[nm][0],))
    _total, colors, assign = results[best_name]
    return colors, assign, candidates


def _output_desc(val):
    """``(shape, dtype)`` of an ndarray output, a list of them for a tuple
    of ndarrays, or ``None`` for an exotic output (left unmanaged)."""
    if isinstance(val, np.ndarray):
        return (val.shape, val.dtype)
    if isinstance(val, tuple) and all(isinstance(e, np.ndarray) for e in val):
        return [(e.shape, e.dtype) for e in val]
    return None


def _make_units(records: list, values: list, find, death):
    """Allocation units for coloring: one per buffer-producing record.

    Output shapes come from the warm run's ``values``.  Unit rows are
    ``[birth, death, padded, raw, parts, key]``: the record is born at its
    tape index and dies at its storage group's last reader (raw bytes feed
    the FIFO baseline simulation).
    """
    units: list[list] = []
    for r_idx, rec in enumerate(records):
        if rec.mode == _MODE_ALIAS:
            continue
        desc = _output_desc(values[rec.out_slot])
        if desc is None:
            continue
        if isinstance(desc, list):  # tuple output: padded multi-part layout
            off = 0
            parts = []
            raw = 0
            for shape, dtype in desc:
                nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
                parts.append((shape, dtype, off))
                off = (off + nbytes + _ALIGN - 1) // _ALIGN * _ALIGN
                raw += nbytes
            last_shape, last_dtype = desc[-1]
            last_nbytes = (
                int(np.prod(last_shape, dtype=np.int64)) * last_dtype.itemsize
            )
            padded = parts[-1][2] + last_nbytes if desc else 0
            key = ("tuple",) + tuple((shape, dtype) for shape, dtype in desc)
        else:
            shape, dtype = desc
            parts = None
            padded = raw = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
            key = (shape, dtype)
        units.append([r_idx, death[find(rec.out_slot)], padded, raw,
                      parts, key])
    return units


class ExecutionPlan:
    """A compiled, slot-indexed execution tape for fixed (fetches, feeds).

    Parameters
    ----------
    fetches:
        Node or sequence of nodes to evaluate (same convention as
        ``Session.run``; a single node yields a single result).
    feed_nodes:
        The nodes whose values are supplied per run, in the positional order
        :meth:`run_list` expects.  Every reachable placeholder must be
        listed; extra entries that the fetches never touch are ignored.
    copy_fetches:
        When True (default) fetched arrays are copied out of the arena, so
        results stay valid forever.  Hot-path consumers that consume results
        before the next run pass False and skip the copies — fetched arrays
        are then views of arena buffers, valid until the next ``run``.
    max_arenas:
        Cap on warm arenas held at once (default 32).  A workload cycling
        through more shape signatures than this evicts the oldest arena
        (FIFO) and re-warms it on revisit — bounding resident memory for
        servers whose micro-batch occupancy varies freely.  Steady
        workloads never hit the cap.
    verify:
        Run the static plan verifier (:mod:`repro.analysis.plancheck`)
        structural checks (P101–P105) at compile time — and again on
        every freshly colored arena — raising ``PlanVerificationError`` on
        any finding.  ``None`` (default) defers to the
        ``REPRO_VERIFY_PLANS`` environment variable, so a whole test run or
        CI job can be hardened without touching call sites.

    A plan owns mutable run state (the slot value table and the arenas), so
    a single plan must not be run from two threads at once — one plan per
    driver, like the batched engine's scratch pool.  The serving pool
    satisfies this by construction: every worker thread owns its engines
    (and therefore their plans) exclusively, and
    ``BatchedEvaluator`` raises on concurrent entry.  *Different* plans may
    run on different threads concurrently — the tape's kernels spend most
    of their time in GIL-releasing BLAS/ufunc calls, which is exactly what
    the multi-worker serving pool overlaps.  The counter accessors below
    (``alloc_count``, ``arena_nbytes``) stay safe to call from a
    monitoring thread.
    """

    def __init__(
        self,
        fetches: Sequence[Node] | Node,
        feed_nodes: Sequence[Node],
        copy_fetches: bool = True,
        max_arenas: int = 32,
        verify: Optional[bool] = None,
    ):
        self._single = isinstance(fetches, Node)
        fetch_list: list[Node] = [fetches] if self._single else list(fetches)
        self._copy_fetches = copy_fetches
        self.max_arenas = max(int(max_arenas), 1)
        self.stats = PlanStats()

        # --- stage 1: tape build -----------------------------------------
        order = topo_sort(fetch_list)
        self.stats.topo_sorts += 1
        n_slots = len(order)
        slot_of = {id(n): i for i, n in enumerate(order)}
        self._n_slots = n_slots
        self._values: list = [None] * n_slots
        self._fetch_slots = [slot_of[id(f)] for f in fetch_list]

        feed_ids = {id(n) for n in feed_nodes}
        self._feed_nodes = list(feed_nodes)
        self._feed_slots = [slot_of.get(id(n), -1) for n in feed_nodes]

        self._var_slots: list[tuple[int, Variable]] = []
        self._const_slots: list[tuple[int, np.ndarray]] = []
        records: list[_Record] = []
        for i, node in enumerate(order):
            if id(node) in feed_ids:
                continue
            if isinstance(node, Variable):
                self._var_slots.append((i, node))
                continue
            if node.op == "constant":
                self._values[i] = node.attrs["value"]
                self._const_slots.append((i, node.attrs["value"]))
                continue
            if node.op == "placeholder":
                raise KeyError(
                    f"placeholder '{node.name}' is reachable from the fetches "
                    f"but not listed in feed_nodes"
                )
            opdef = get_op(node.op)
            if node.op in ALIAS_OPS:
                mode = _MODE_ALIAS
            elif opdef.forward_out is not None:
                mode = _MODE_OUT
            else:
                mode = _MODE_COPY
            records.append(
                _Record(
                    node,
                    opdef.forward,
                    opdef.forward_out,
                    tuple(slot_of[id(inp)] for inp in node.inputs),
                    node.attrs,
                    i,
                    mode,
                )
            )

        # --- stage 2: liveness scheduling ---------------------------------
        self._records = _schedule_tape(records, self._fetch_slots)

        # --- stage 3: liveness and alias groups on the scheduled order;
        # stage 4, coloring, happens per arena once shapes are known.
        self._find, self._death = _analyze(
            self._records, self._fetch_slots, n_slots
        )

        self._arenas: dict[tuple, BufferArena] = {}
        # Plan-owned feed staging buffers (the "arena-aware batched engine"
        # seam): callers stage feed values directly into these persistent
        # slots instead of a second scratch pool, so one pool serves both
        # the staging side and the execution side.  Keyed by an arbitrary
        # caller key + shape + dtype, like ScratchPool; id-indexed so
        # ``run_list`` can count in-place feeds without hashing arrays.
        self._feed_store: dict[tuple, np.ndarray] = {}
        self._feed_ids: set[int] = set()
        self.feed_nbytes = 0

        if verify is None:
            verify = os.environ.get("REPRO_VERIFY_PLANS", "") not in ("", "0")
        self._verify_arenas = bool(verify)
        if verify:
            self.verify(raise_on_findings=True)

    # ------------------------------------------------------------------ info

    def verify(self, spec=None, check_values: bool = False,
               raise_on_findings: bool = False):
        """Statically verify this plan; returns a ``PlanReport``.

        Structural soundness (liveness, alias groups, arena buffer
        disjointness, fetch pinning — rules P101–P105) is always checked.
        Pass a feed ``spec`` (``{feed node or name: FeedSpec}``, see
        :func:`repro.analysis.plancheck.dp_feed_spec`) to also run symbolic
        shape/dtype inference over the tape (P106–P108);
        ``check_values=True`` additionally compares inferred shapes/dtypes
        against the concrete arrays of the most recent run.
        """
        from repro.analysis.plancheck import PlanVerificationError, verify_plan

        report = verify_plan(self, spec=spec, check_values=check_values)
        if raise_on_findings and not report.ok:
            raise PlanVerificationError(report)
        return report

    def storage_root(self, slot: int) -> int:
        """Representative slot of ``slot``'s storage group (alias union)."""
        return self._find(slot)

    def death_index(self, slot: int) -> int:
        """Last tape index reading ``slot``'s storage group (``1 << 62`` =
        pinned forever, ``-1`` = never read)."""
        return self._death.get(self._find(slot), -1)

    @property
    def n_records(self) -> int:
        return len(self._records)

    @property
    def arenas(self) -> dict[tuple, BufferArena]:
        return self._arenas

    def alloc_count(self) -> int:
        """Total arena slab allocations across all shape signatures.

        Safe to call from a monitoring thread while the owning thread runs
        the plan: the arena table is snapshotted (atomic under the GIL)
        before summing.
        """
        return sum(a.alloc_count for a in list(self._arenas.values()))

    def arena_nbytes(self) -> int:
        """Bytes held by the colored arenas (all shape signatures)."""
        return sum(a.alloc_bytes for a in list(self._arenas.values()))

    def fifo_arena_nbytes(self) -> int:
        """Bytes the PR 3 FIFO shape-keyed recycler would have needed for
        the same tapes and shapes — the coloring allocator's regression
        baseline (simulated at arena-build time, never allocated)."""
        return sum(a.fifo_nbytes for a in list(self._arenas.values()))

    def feed_buffer(self, key, shape: tuple, dtype=np.float64) -> np.ndarray:
        """Persistent plan-owned staging destination for a feed value.

        The batched engine stages its sorted feed tensors directly into
        these slots (``np.take(..., out=plan.feed_buffer(...))``) instead of
        into a separate scratch pool, unifying feed staging with the plan's
        storage — the first slice of the ROADMAP "arena-aware batched
        engine" item.  Buffers are keyed ``(key, shape, dtype)`` and
        allocated once per distinct shape (``stats.feed_allocs``); a value
        passed to :meth:`run_list` that *is* one of these buffers (or a view
        of one) counts toward ``stats.in_place_feeds``.

        The store is bounded like the arenas: beyond ``8 * max_arenas``
        buffers the oldest is dropped (FIFO, ``stats.feed_evictions``) and
        re-allocated on revisit, so free-form shape churn — a server whose
        batch occupancy varies, a migration-heavy distributed run — cannot
        grow resident memory without bound.  Steady workloads (a handful of
        feed shapes) never hit the cap.

        Like the arenas, feed buffers are single-threaded run state —
        callers stage and run from the one thread that owns the plan.
        """
        store_key = (key, tuple(shape), np.dtype(dtype))
        buf = self._feed_store.get(store_key)
        if buf is None:
            buf = np.empty(shape, dtype)
            while len(self._feed_store) >= 8 * self.max_arenas:
                # FIFO eviction, same policy as the arena cap.
                old = self._feed_store.pop(next(iter(self._feed_store)))
                self._feed_ids.discard(id(old))
                self.feed_nbytes -= old.nbytes
                self.stats.feed_evictions += 1
            self._feed_store[store_key] = buf
            self._feed_ids.add(id(buf))
            self.stats.feed_allocs += 1
            self.feed_nbytes += buf.nbytes
        return buf

    def release_arenas(self) -> None:
        """Drop every buffer arena and feed staging buffer (the compiled
        tape is kept).

        The arena holds roughly the graph's peak live set *persistently*;
        long-lived processes that are done with a shape regime (or want to
        hand the memory back before measuring something allocation-
        sensitive) release here and re-warm on the next run.  ``stats``
        counters are cumulative and unaffected; ``alloc_count()`` restarts
        from zero.
        """
        self._arenas.clear()
        self._feed_store.clear()
        self._feed_ids.clear()
        self.feed_nbytes = 0
        self._values = [None] * self._n_slots
        for slot, value in self._const_slots:
            self._values[slot] = value

    # ------------------------------------------------------------------ run

    def run(self, feeds: Optional[dict] = None, session=None):
        """Evaluate the fetches; mirrors ``Session.run(fetches, feeds)``.

        ``session`` (optional) supplies profiling: when ``session.profile``
        is set, per-operator stats are recorded into ``session.stats``.
        """
        feeds = feeds or {}
        vals = []
        for node, slot in zip(self._feed_nodes, self._feed_slots):
            if slot < 0:
                vals.append(None)
                continue
            try:
                vals.append(feeds[node])
            except KeyError:
                raise KeyError(
                    f"plan feed '{node.name}' missing from feeds"
                ) from None
        return self.run_list(vals, session=session)

    def run_list(self, feed_values: Sequence, session=None):
        """Evaluate with feed values positionally matching ``feed_nodes``."""
        if len(feed_values) != len(self._feed_slots):
            # Without this, zip truncation would silently reuse the previous
            # run's array for the missing feed — wrong results, no exception.
            raise ValueError(
                f"plan expects {len(self._feed_slots)} feed values "
                f"(got {len(feed_values)})"
            )
        values = self._values
        feed_ids = self._feed_ids
        in_place = 0
        sig = []
        for slot, v in zip(self._feed_slots, feed_values):
            if slot < 0:
                continue
            if type(v) is not np.ndarray:
                v = np.asarray(v)
            elif id(v) in feed_ids or id(v.base) in feed_ids:
                # Already staged into a plan-owned feed slot (or a view of
                # one) — the caller paid no extra staging copy for it.
                in_place += 1
            values[slot] = v
            # Tiny integer feeds are shape *parameters* (e.g. the DP graph's
            # ``natoms``: ProdForce's output row count), so they join the
            # signature by value — same-shaped feeds with a different count
            # must not share an arena.
            if v.dtype.kind in "iu" and v.size <= 4:
                sig.append((v.shape, v.dtype, v.tobytes()))
            else:
                sig.append((v.shape, v.dtype))
        for slot, var in self._var_slots:
            values[slot] = var.value
        signature = tuple(sig)
        self.stats.in_place_feeds += in_place

        profile = session is not None and session.profile
        arena = self._arenas.get(signature)
        if arena is None:
            self._warm_run(profile, session)
            while len(self._arenas) >= self.max_arenas:
                # FIFO eviction: drop the oldest warm arena (re-warms on
                # revisit) so free-form signature churn can't grow memory
                # without bound.
                self._arenas.pop(next(iter(self._arenas)))
                self.stats.arena_evictions += 1
            self._arenas[signature] = self._build_arena(signature)
            self.stats.arena_builds += 1
            if self._verify_arenas:
                # The soundness gate on the colored result: P103 re-checks
                # buffer-address disjointness of live storage groups on the
                # arena just built.
                self.verify(raise_on_findings=True)
        elif profile:
            self._steady_run_profiled(arena, session)
        else:
            self._steady_run(arena)
        self.stats.runs += 1

        outs = [values[s] for s in self._fetch_slots]
        if self._copy_fetches:
            outs = [
                tuple(e.copy() for e in o)
                if isinstance(o, tuple)
                else (o.copy() if isinstance(o, np.ndarray) else o)
                for o in outs
            ]
        return outs[0] if self._single else outs

    # ----------------------------------------------------------- execution

    def _warm_run(self, profile: bool, session) -> None:
        """First run for a signature: plain kernels, shapes recorded."""
        values = self._values
        for rec in self._records:
            ins = [values[s] for s in rec.input_slots]
            if profile:
                t0 = time.perf_counter()
                out = rec.forward(ins, rec.attrs)
                dt = time.perf_counter() - t0
                session.stats.record(
                    rec.op, dt, op_flops(rec.node, ins, out), _result_nbytes(out)
                )
            else:
                out = rec.forward(ins, rec.attrs)
            values[rec.out_slot] = out

    def _build_arena(self, signature) -> BufferArena:
        """Stage 4: interference-color the warm run's shapes into slabs.

        Each buffer-producing record is an allocation unit with liveness
        range ``[tape index, storage-group death]``.  Units whose ranges
        overlap *interfere* and must not share storage; non-interfering
        units may.  Greedy coloring (three candidate orders — first-fit by
        decreasing size, first-fit in tape order, best-fit by decreasing
        size — keeping whichever yields fewest bytes) assigns each unit a
        color; the arena allocates ONE byte slab per color, sized to the
        color's largest member, and every unit's buffer is a shape/dtype
        view into its slab.  The FIFO recycler's footprint is simulated as
        ``fifo_nbytes`` (never allocated).
        """
        records = self._records
        arena = BufferArena(signature)
        buffers = arena.buffers
        buffers.extend([None] * len(records))

        units = _make_units(records, self._values, self._find, self._death)

        # --- interference coloring (best of three candidate orders) ------
        colors, assign, candidates = _color_units(units)
        arena.color_candidates = candidates

        slabs = [arena._new((cap,), np.uint8) for cap, _members in colors]
        for ui, unit in enumerate(units):
            r_idx, parts, key = unit[0], unit[4], unit[5]
            slab = slabs[assign[ui]]
            if parts is None:
                shape, dtype = key
                buffers[r_idx] = np.ndarray(shape, dtype=dtype, buffer=slab)
            else:
                buffers[r_idx] = tuple(
                    np.ndarray(shape, dtype=dtype, buffer=slab, offset=off)
                    for shape, dtype, off in parts
                )

        # --- FIFO baseline simulation (what PR 3's recycler would use) ---
        # The baseline allocator recycled a dead buffer only for a later
        # record with the exact same shape and dtype.
        unit_at = {u[0]: u for u in units}
        pool: dict[tuple, int] = {}
        heap: list = []
        fifo = 0
        for r_idx in range(len(records)):
            while heap and heap[0][0] < r_idx:
                _, _, key = heappop(heap)
                pool[key] = pool.get(key, 0) + 1
            u = unit_at.get(r_idx)
            if u is None:
                continue
            key = u[5]
            if pool.get(key, 0) > 0:
                pool[key] -= 1
            else:
                fifo += u[3]
            if u[1] < _INF:
                heappush(heap, (u[1], r_idx, key))
        arena.fifo_nbytes = fifo
        return arena

    def _steady_run(self, arena: BufferArena) -> None:
        """The hot loop: flat tape, slot indexing, arena destinations."""
        values = self._values
        for rec, buf in zip(self._records, arena.buffers):
            ins = [values[s] for s in rec.input_slots]
            if buf is None:
                values[rec.out_slot] = rec.forward(ins, rec.attrs)
            elif rec.mode == _MODE_OUT:
                rec.forward_out(ins, rec.attrs, buf)
                values[rec.out_slot] = buf
            else:  # _MODE_COPY
                out = rec.forward(ins, rec.attrs)
                if type(buf) is tuple:
                    for b, o in zip(buf, out):
                        np.copyto(b, o)
                else:
                    np.copyto(buf, out)
                values[rec.out_slot] = buf

    def _steady_run_profiled(self, arena: BufferArena, session) -> None:
        values = self._values
        stats = session.stats
        for rec, buf in zip(self._records, arena.buffers):
            ins = [values[s] for s in rec.input_slots]
            t0 = time.perf_counter()
            if buf is None:
                out = rec.forward(ins, rec.attrs)
            elif rec.mode == _MODE_OUT:
                rec.forward_out(ins, rec.attrs, buf)
                out = buf
            else:
                res = rec.forward(ins, rec.attrs)
                if type(buf) is tuple:
                    for b, o in zip(buf, res):
                        np.copyto(b, o)
                else:
                    np.copyto(buf, res)
                out = buf
            dt = time.perf_counter() - t0
            stats.record(rec.op, dt, op_flops(rec.node, ins, out), _result_nbytes(out))
            values[rec.out_slot] = out


def compile_plan(
    fetches: Sequence[Node] | Node,
    feed_nodes: Sequence[Node],
    copy_fetches: bool = True,
    max_arenas: int = 32,
    verify: Optional[bool] = None,
) -> ExecutionPlan:
    """Compile ``fetches`` into an :class:`ExecutionPlan`.

    Runs the pipeline (tape build → liveness schedule → liveness analysis;
    interference coloring happens per feed-shape signature at warm time)
    exactly once; every subsequent :meth:`ExecutionPlan.run` is a flat tape
    walk into colored, persistent output buffers, bitwise identical to
    ``Session.run`` on the same fetches and feeds.  ``verify=True`` (or
    ``REPRO_VERIFY_PLANS=1``) runs the static plan verifier's structural
    checks at compile time and on every freshly colored arena.
    """
    return ExecutionPlan(
        fetches,
        feed_nodes,
        copy_fetches=copy_fetches,
        max_arenas=max_arenas,
        verify=verify,
    )
