"""Batched multi-replica DP evaluation — one graph run for R frames.

The paper's throughput lesson (and the follow-up line of work it spawned:
86-PFLOPS DPMD on Summit, 149 ns/day water) is that fixed per-evaluation
costs — graph dispatch, operator launch, Python bookkeeping — must be
amortized over as many atoms as possible.  This module applies that lesson
*across frames*: R replica systems (different seeds/temperatures, same model)
are stacked row-wise into one formatted-neighbor layout, pushed through a
single set of GEMMs, and un-stacked into per-replica results.

Design notes
------------
* Row stacking.  Every tensor in the DP hot path is "per local atom" along
  axis 0 (environment rows, embedding inputs, fitting outputs), so replicas
  concatenate trivially; neighbor indices are shifted by per-replica atom
  offsets so ProdForce's scatter-add lands each replica in its own span of
  one global force array.
* Locals-first ghost stacking.  Domain-decomposed sub-domain frames carry
  explicit ghost atoms (``nloc < n_atoms``, ``pbc=False``), and different
  ranks generally own different atom counts.  Such frames still stack into
  ONE formatted-neighbor layout: all frames' *local* atoms are concatenated
  first (rows 0..total_loc), all ghost atoms after, and each frame's pair
  list is remapped into that numbering.  Because the remap is monotonic
  (locals stay below ghosts, order preserved within each segment), the
  canonical neighbor sort — (type, distance, index) — produces exactly the
  per-frame order, so stacked sub-domain results stay bitwise identical to
  evaluating each rank's frame alone (the retained per-rank oracle).
* Shape bucketing.  :meth:`BatchedEvaluator.evaluate_frames` groups incoming
  frames by :func:`frame_bucket_key` — (pbc, natoms, nloc, box, type
  signature) — and issues one batched evaluation per bucket; frames whose
  key is unique coalesce into one residual bucket per ``pbc`` value, so a
  replica-ensemble of decomposed ranks costs a handful of graph runs per
  step instead of one per rank x replica.  :class:`repro.dp.backend.
  ForceBackend` caches the partition between neighbor rebuilds.
* Bitwise reproducibility.  For R=1 the stacked feeds are byte-identical to
  the serial path's, so energies/forces/virials match the serial engine
  bit-for-bit (asserted in ``tests/test_ensemble.py``).  For R>1 each
  replica's rows keep their serial-relative order under the stable type sort,
  so scatter-add orderings per force accumulator are unchanged as well; with
  tfmini's row-count-independent matrix-vector kernel (the fitting net's
  N=1 output layer — see ``_fwd_matmul_2d`` in :mod:`repro.tfmini.ops`),
  *every* per-replica quantity, energies and atomic energies included, is
  bitwise independent of batch composition.  This is the guarantee the
  serving layer (:mod:`repro.serving`) exposes to clients: a frame's result
  never depends on which other requests it was coalesced with.
* Persistent scratch.  The batch-scale staging buffers (normalized
  environment matrix, its derivative, displacements, shifted neighbor lists)
  live in a :class:`ScratchPool` keyed by name and are reused while shapes
  are steady — the steady-state MD loop performs no new large allocations
  (asserted via ``ScratchPool.alloc_count`` in the tests).
* Compiled graph execution.  The DP graph itself runs through a compiled
  execution plan (:mod:`repro.tfmini.plan`): the forward+backward DAG is
  topo-sorted once per engine, and every evaluation is a flat slot-indexed
  tape walk into a persistent, liveness-recycled buffer arena — no per-run
  graph traversal, dict dispatch, or per-op output allocation.  Results stay
  bitwise identical to ``Session.run`` (the retained oracle; pass
  ``use_plan=False`` to execute through it for differential testing).
* One engine, one thread.  The scratch pool, cached neighbor layouts, and
  the plan's buffer arenas are all mutable run state, so an engine must
  never be *executing* on two threads at once — one engine per driver
  thread (the serving pool gives every worker its own; see
  :mod:`repro.serving.worker`).  ``evaluate_batch`` guards the invariant:
  concurrent entry from a second thread raises instead of silently
  corrupting buffers.  Sequential use from different threads (warm on the
  main thread, then hand the engine to a worker) is fine.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.dp.nlist_fmt import (
    _MAX_INDEX,
    PAD,
    FormattedNeighbors,
    format_neighbors,
)
from repro.dp.ops_baseline import environment_baseline
from repro.dp.ops_optimized import environment_op
from repro.md.potential import PotentialResult
from repro.md.system import System

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from repro.dp.model import DeepPot


class _StackedFrame:
    """Duck-typed stand-in for :class:`System` covering R stacked replicas.

    Exposes exactly the attributes the neighbor formatter and the Environment
    operator read (positions/types/box/n_atoms/n_types), backed by the
    engine's pooled buffers — no dataclass validation or re-copy per step.
    """

    __slots__ = ("positions", "types", "box", "n_atoms", "n_types")

    def __init__(self, positions, types, box, n_types):
        self.positions = positions
        self.types = types
        self.box = box
        self.n_atoms = positions.shape[0]
        self.n_types = n_types


class ScratchPool:
    """Named, shape-keyed persistent buffers for the batched hot path.

    ``get(name, shape, dtype)`` returns the cached array for that
    (name, shape, dtype) key, allocating only on first sight — so a driver
    alternating between batch shapes (e.g. R=1 MD steps interleaved with
    R=4 sampling batches) warms one buffer set per shape and then stops
    allocating, instead of thrashing a single slot.  ``alloc_count`` and
    ``alloc_bytes`` expose deterministic counters the buffer-reuse tests
    (and the batched benchmark) assert on — no wall-clock involved.

    The pool is bounded (``max_entries``, FIFO eviction like the plan's
    arena and feed-slot caps): migration-heavy distributed runs re-key the
    stacked staging buffers on almost every reneighboring (total atom
    counts drift), and without a cap every shape ever seen would stay
    resident.  Steady workloads never evict; churny ones re-warm evicted
    shapes on revisit (``evictions`` counts them).
    """

    def __init__(self, max_entries: int = 512) -> None:
        self._arrays: dict[tuple, np.ndarray] = {}
        self.max_entries = max(int(max_entries), 1)
        self.alloc_count = 0
        self.alloc_bytes = 0
        self.evictions = 0

    def get(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        key = (name, tuple(shape), np.dtype(dtype))
        arr = self._arrays.get(key)
        if arr is None:
            arr = np.empty(shape, dtype=dtype)
            while len(self._arrays) >= self.max_entries:
                # FIFO: drop the oldest buffer; a caller still holding it
                # keeps it alive, the pool just stops retaining it.
                self._arrays.pop(next(iter(self._arrays)))
                self.evictions += 1
            self._arrays[key] = arr
            self.alloc_count += 1
            self.alloc_bytes += arr.nbytes
        return arr

    def nbytes(self) -> int:
        """Bytes currently held by the pool."""
        return sum(a.nbytes for a in self._arrays.values())

    def clear(self) -> None:
        self._arrays.clear()


def frame_light_key(system, nloc: Optional[int] = None, pbc: bool = True) -> tuple:
    """The cheap-to-compute part of :func:`frame_bucket_key`: everything
    that can drift between neighbor rebuilds (counts and box), minus the
    O(natoms) type signature.  :class:`repro.dp.backend.ForceBackend`
    recomputes this per call to validate its cached partition."""
    n = int(system.n_atoms)
    nloc = n if nloc is None else int(nloc)
    # The box only constrains stacking under PBC (minimum image uses one
    # shared box); open-boundary frames never read it.
    box_sig = system.box.lengths.tobytes() if pbc else b""
    return (bool(pbc), n, nloc, box_sig)


def frame_bucket_key(system, nloc: Optional[int] = None, pbc: bool = True) -> tuple:
    """Shape-bucket key of one evaluation frame.

    Frames sharing a key have identical (pbc, natoms, nloc, box, type
    signature) and can always share one stacked evaluation: same row count,
    same ghost split, same box (the PBC stacking requirement), and — because
    the type signature matches — a feed-shape signature that stays steady
    for the bucket's compiled-plan arena across steps.  Structurally the
    key is :func:`frame_light_key` plus the type signature, which keeps the
    two validation layers locked together.
    """
    return frame_light_key(system, nloc, pbc) + (system.types.tobytes(),)


def plan_frame_buckets(keys: Sequence[tuple]) -> list[list[int]]:
    """Partition frame indices into evaluation buckets.

    Frames with equal :func:`frame_bucket_key` form one bucket (one stacked
    evaluation each).  Frames whose key is unique would each cost a graph
    run of their own, so they coalesce into one *residual* bucket per
    ``pbc`` value — the general staging path (and, for open-boundary
    frames, the locals-first stacked path) handles heterogeneous shapes in
    a single run.  Bucket order is deterministic: multi-frame buckets in
    first-appearance order, then the residual bucket(s).
    """
    groups: dict[tuple, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    buckets: list[list[int]] = []
    residual: dict[bool, list[int]] = {}
    for key, idxs in groups.items():
        if len(idxs) > 1:
            buckets.append(idxs)
        else:
            residual.setdefault(key[0], []).append(idxs[0])
    for idxs in residual.values():
        buckets.append(sorted(idxs))
    return buckets


class BatchedEvaluator:
    """Evaluates a stack of R frames through one DP graph execution.

    One instance per driver (a :class:`~repro.md.ensemble.EnsembleSimulation`
    or a single-replica :class:`~repro.md.simulation.Simulation`) keeps the
    scratch shapes steady; the model itself stays stateless across engines.
    """

    def __init__(
        self,
        model: "DeepPot",
        use_plan: bool = True,
    ):
        self.model = model
        self.scratch = ScratchPool()
        self.use_plan = use_plan
        self._plan = None  # compiled lazily: one topo_sort per engine
        # Reusable neighbor layouts (nlist storage recycling), keyed by
        # ("stacked", rows, atoms) or (replica, rows) so alternating batch
        # shapes keep their own layouts instead of thrashing one slot.
        # Bounded like the scratch pool: stacked keys drift with migration
        # (total atom counts change on reneighboring), so the oldest layout
        # is dropped FIFO beyond the cap instead of retaining every shape
        # ever seen.
        self._fmts: dict[tuple, FormattedNeighbors] = {}
        self.max_fmt_layouts = 32
        self.fmt_evictions = 0
        self.batch_evaluations = 0
        self.frames_evaluated = 0
        # One-engine-one-thread guard: the thread currently inside
        # evaluate_batch (None when idle), compare-and-set under a lock so
        # simultaneous entry cannot slip past the check.  Scratch buffers
        # and plan arenas are per-engine run state, so concurrent entry is
        # always a caller bug (share the model, not the engine).
        self._active_thread: Optional[int] = None
        self._guard_lock = threading.Lock()
        # Staging-path counters: frames that arrive as separate requests
        # (the serving layer) only take the single-lexsort fast path when
        # their boxes match; these counters let callers see which path a
        # workload actually exercised.
        self.stacked_batches = 0
        self.general_batches = 0
        # Ghost-mode stacked batches (locals-first layout, nloc < n_atoms
        # somewhere in the stack) — the domain-decomposition fast path.
        self.ghost_stacked_batches = 0
        # Sort-stage counters: batches whose rows were already type-sorted
        # skip the per-feed gather copies entirely (identity staging) —
        # single-type models (copper) hit this on every evaluation; the
        # rest gather into the plan's persistent feed slots (or scratch on
        # the Session oracle path).
        self.stage_identity = 0
        self.stage_gathers = 0
        # evaluate_frames: bucketed evaluations issued (one per bucket).
        self.bucket_evaluations = 0

    @property
    def plan(self):
        """The engine's compiled execution plan (lazily compiled).

        Feed order is the engine's staging order; fetches are the batched
        path's graph outputs.  The plan is per-engine — like the scratch
        pool, each driver keeps its own arena so shapes stay steady.
        """
        if self._plan is None:
            from repro.tfmini.plan import compile_plan

            m = self.model
            self._plan = compile_plan(
                [m._f_forces, m._f_net_deriv] + list(m._f_e_atoms),
                list(m.ph_env)
                + [m.ph_em_deriv, m.ph_rij, m.ph_nlist, m.ph_atom_idx, m.ph_natoms],
                copy_fetches=False,  # results are unpacked before the next run
            )
        return self._plan

    def _remember_fmt(self, key: tuple, fmt: FormattedNeighbors) -> None:
        """Retain a neighbor layout for ``out=`` reuse, FIFO-bounded."""
        self._fmts[key] = fmt
        while len(self._fmts) > self.max_fmt_layouts:
            self._fmts.pop(next(iter(self._fmts)))
            self.fmt_evictions += 1

    def release_buffers(self) -> None:
        """Drop all persistent storage: scratch pool, cached neighbor
        layouts, and the compiled plan's buffer arenas (the compiled tape
        survives).  The next evaluation re-warms; results are unaffected.
        Useful before allocation-sensitive measurements or when a shape
        regime is finished."""
        self.scratch.clear()
        self._fmts.clear()
        if self._plan is not None:
            self._plan.release_arenas()

    # ------------------------------------------------------------------ core

    def evaluate_batch(
        self,
        systems: Sequence[System],
        pair_lists: Sequence[tuple[np.ndarray, np.ndarray]],
        backend: str = "optimized",
        nlocs: Optional[Sequence[int]] = None,
        pbc: bool = True,
    ) -> list[PotentialResult]:
        """Energies/forces/virials for R frames in one batched graph run.

        Parameters
        ----------
        systems:
            R snapshots sharing the model's type vocabulary.  Replicas may
            differ in atom count (they are stacked by rows, not reshaped).
        pair_lists:
            Per-replica half neighbor-pair lists ``(pair_i, pair_j)``.
        nlocs:
            Optional per-replica local-atom counts for the ghost/domain-
            decomposition mode (defaults to all atoms local).
        pbc:
            Minimum-image displacements (True) or raw displacements for
            decomposed sub-domains whose images are explicit ghosts (False).

        Returns
        -------
        One :class:`PotentialResult` per replica, bitwise identical to what
        the serial path would produce for that replica alone.

        Raises
        ------
        RuntimeError
            On concurrent entry from a second thread — the engine's scratch
            pool and plan arenas are single-threaded run state (the
            one-engine-one-thread invariant; give each thread its own
            engine).
        """
        me = threading.get_ident()
        with self._guard_lock:
            owner = self._active_thread
            if owner is not None and owner != me:
                raise RuntimeError(
                    "BatchedEvaluator entered concurrently from two threads "
                    f"(owner thread {owner}, caller {me}); engines hold "
                    "single-threaded scratch/arena state — use one engine "
                    "per thread (see repro.serving's worker pool)"
                )
            self._active_thread = me
        try:
            return self._evaluate_batch(
                systems, pair_lists, backend=backend, nlocs=nlocs, pbc=pbc
            )
        finally:
            with self._guard_lock:
                if self._active_thread == me:
                    self._active_thread = None

    def _evaluate_batch(
        self,
        systems: Sequence[System],
        pair_lists: Sequence[tuple[np.ndarray, np.ndarray]],
        backend: str = "optimized",
        nlocs: Optional[Sequence[int]] = None,
        pbc: bool = True,
    ) -> list[PotentialResult]:
        model = self.model
        cfg = model.config
        R = len(systems)
        if R == 0:
            return []
        if len(pair_lists) != R:
            raise ValueError(f"{R} systems but {len(pair_lists)} pair lists")
        nlocs = (
            [s.n_atoms for s in systems]
            if nlocs is None
            else [int(n) for n in nlocs]
        )
        if len(nlocs) != R:
            raise ValueError(f"{R} systems but {len(nlocs)} nloc entries")

        nnei = cfg.nnei
        n_atoms = [s.n_atoms for s in systems]
        if any(nlocs[r] > n_atoms[r] or nlocs[r] < 0 for r in range(R)):
            raise ValueError("nloc entries must satisfy 0 <= nloc <= n_atoms")
        n_ghost = [n_atoms[r] - nlocs[r] for r in range(R)]
        atom_off = np.concatenate([[0], np.cumsum(n_atoms)])
        loc_off = np.concatenate([[0], np.cumsum(nlocs)])
        ghost_off = np.concatenate([[0], np.cumsum(n_ghost)])
        total_atoms = int(atom_off[-1])
        total_loc = int(loc_off[-1])
        full_local = total_loc == total_atoms

        scratch = self.scratch
        em_n = scratch.get("em_n", (total_loc, nnei, 4))
        ed_n = scratch.get("ed_n", (total_loc, nnei, 4, 3))
        rij = scratch.get("rij", (total_loc, nnei, 3))
        gidx = scratch.get("gidx", (total_loc,), np.int64)
        rep_of_row = scratch.get("rep", (total_loc,), np.int64)

        # Per-frame unstacking metadata, filled by whichever staging branch
        # runs: ``own_base[r]`` is the global row index of frame r's first
        # local atom, ``force_spans[r]`` the (start, count) segments of the
        # global force array that belong to frame r, in frame-local order.
        own_base: list[int]
        force_spans: list[list[tuple[int, int]]]

        # --- stage the replicas into one formatted-neighbor layout ---------
        # Fast path: the whole batch is stacked into a single virtual frame,
        # so it is formatted by ONE lexsort and one Environment-operator call
        # (neighbor indices never cross replica spans because each frame's
        # pair list is remapped into its own row span).  Per-frame Python
        # staging cost — the fixed cost the engine exists to amortize — is
        # paid once per batch instead of once per frame.  Two stackable
        # regimes:
        #
        # * full-local frames under PBC sharing one box (the ensemble /
        #   serving case) — frames concatenate contiguously;
        # * open-boundary frames (``pbc=False``: domain-decomposed
        #   sub-domains with explicit ghosts) with ANY mix of nloc — all
        #   locals are stacked first, all ghosts after ("locals-first"
        #   layout), and the pair-list remap is monotonic, so the canonical
        #   (type, dist, index) neighbor sort reproduces each frame's
        #   standalone order bit-for-bit.
        #
        # The general path stages replica-by-replica and covers the rest:
        # mixed boxes under PBC, the baseline backend, codec overflow.
        stackable = (
            backend == "optimized"
            and (not cfg.use_compression or total_atoms < _MAX_INDEX)
            and (
                not pbc
                or (
                    full_local
                    and all(
                        np.array_equal(s.box.lengths, systems[0].box.lengths)
                        for s in systems[1:]
                    )
                )
            )
        )
        if stackable:
            self.stacked_batches += 1
            if not full_local:
                self.ghost_stacked_batches += 1
            pos_cat = scratch.get("pos", (total_atoms, 3))
            types_all = scratch.get("types", (total_atoms,), np.int64)
            types_cat = types_all[:total_loc]
            npairs = [len(pair_lists[r][0]) for r in range(R)]
            pair_off = np.concatenate([[0], np.cumsum(npairs)])
            n_pairs = int(pair_off[-1])
            # Pair counts drift a little on every neighbor-list rebuild, so
            # the staging slabs are sized to the next power of two and
            # sliced — bounded distinct shapes (and allocations) over a long
            # run, instead of one dead buffer pair per rebuild.
            cap = 1 << max(n_pairs - 1, 1).bit_length()
            pi_cat = scratch.get("pair_i", (cap,), np.int64)[:n_pairs]
            pj_cat = scratch.get("pair_j", (cap,), np.int64)[:n_pairs]
            own_base = [int(loc_off[r]) for r in range(R)]
            force_spans = []
            for r in range(R):
                nloc_r, g = nlocs[r], n_ghost[r]
                llo, lhi = int(loc_off[r]), int(loc_off[r + 1])
                pos_cat[llo:lhi] = systems[r].positions[:nloc_r]
                types_all[llo:lhi] = systems[r].types[:nloc_r]
                spans = [(llo, nloc_r)]
                if g:
                    glo = total_loc + int(ghost_off[r])
                    pos_cat[glo : glo + g] = systems[r].positions[nloc_r:]
                    types_all[glo : glo + g] = systems[r].types[nloc_r:]
                    spans.append((glo, g))
                force_spans.append(spans)
                gidx[llo:lhi] = np.arange(llo, lhi)
                rep_of_row[llo:lhi] = r
                plo, phi = int(pair_off[r]), int(pair_off[r + 1])
                pi_r, pj_r = pair_lists[r]
                if g == 0:
                    np.add(pi_r, llo, out=pi_cat[plo:phi])
                    np.add(pj_r, llo, out=pj_cat[plo:phi])
                else:
                    # Monotonic remap: local index a -> llo + a, ghost index
                    # a -> total_loc + ghost_off[r] + (a - nloc_r).  Locals
                    # stay below every ghost, so (type, dist, index)
                    # tie-breaking orders neighbors exactly as in the
                    # standalone frame.
                    ghost_shift = total_loc + int(ghost_off[r]) - nloc_r
                    for src, dst in ((pi_r, pi_cat[plo:phi]), (pj_r, pj_cat[plo:phi])):
                        np.add(src, llo, out=dst)
                        hi_rows = src >= nloc_r
                        dst[hi_rows] = src[hi_rows] + ghost_shift
            stacked = _StackedFrame(
                pos_cat, types_all, systems[0].box, systems[0].n_types
            )
            fmt_key = ("stacked", total_loc, total_atoms)
            fmt = format_neighbors(
                stacked, pi_cat, pj_cat, cfg.rcut, cfg.sel,
                use_compression=cfg.use_compression, nloc=total_loc, pbc=pbc,
                out=self._fmts.get(fmt_key),
            )
            self._remember_fmt(fmt_key, fmt)
            environment_op(
                stacked, fmt, cfg.rcut_smth, cfg.rcut, pbc=pbc,
                out=(em_n, ed_n, rij),
            )
            slot_t = fmt.slot_types()
            davg = model.davg[slot_t]  # (nnei, 4)
            dstd = model.dstd[slot_t]
            np.subtract(em_n, davg, out=em_n)
            np.divide(em_n, dstd, out=em_n)
            np.divide(ed_n, dstd[..., None], out=ed_n)
            nlist_g = fmt.nlist  # already in the global numbering
        else:
            self.general_batches += 1
            types_cat = scratch.get("types_loc", (total_loc,), np.int64)
            nlist_g = scratch.get("nlist", (total_loc, nnei), np.int64)
            own_base = [int(atom_off[r]) for r in range(R)]
            force_spans = [
                [(int(atom_off[r]), n_atoms[r])] for r in range(R)
            ]
            row = 0
            for r in range(R):
                system, (pi, pj) = systems[r], pair_lists[r]
                nloc = nlocs[r]
                fmt_key = (r, nloc)
                fmt = format_neighbors(
                    system, pi, pj, cfg.rcut, cfg.sel,
                    use_compression=cfg.use_compression, nloc=nloc, pbc=pbc,
                    out=self._fmts.get(fmt_key),
                )
                self._remember_fmt(fmt_key, fmt)
                sl = slice(row, row + nloc)
                if backend == "optimized":
                    environment_op(
                        system, fmt, cfg.rcut_smth, cfg.rcut, pbc=pbc,
                        out=(em_n[sl], ed_n[sl], rij[sl]),
                    )
                elif backend == "baseline":
                    em_b, ed_b, rij_b = environment_baseline(
                        system, fmt, cfg.rcut_smth, cfg.rcut, pbc=pbc
                    )
                    em_n[sl], ed_n[sl], rij[sl] = em_b, ed_b, rij_b
                else:
                    raise ValueError(f"unknown backend {backend!r}")

                # Normalize in place (same elementwise ops as the serial path).
                slot_t = fmt.slot_types()
                davg = model.davg[slot_t]  # (nnei, 4)
                dstd = model.dstd[slot_t]
                np.subtract(em_n[sl], davg, out=em_n[sl])
                np.divide(em_n[sl], dstd, out=em_n[sl])
                np.divide(ed_n[sl], dstd[..., None], out=ed_n[sl])

                # Shift neighbor indices into the global atom numbering.
                np.add(fmt.nlist, atom_off[r], out=nlist_g[sl])
                nlist_g[sl][fmt.nlist == PAD] = PAD

                types_cat[sl] = system.types[:nloc]
                gidx[sl] = np.arange(atom_off[r], atom_off[r] + nloc)
                rep_of_row[sl] = r
                row += nloc

        # --- one type-sorted feed set for the whole stack ------------------
        # Identity fast path: when the stacked rows are already type-sorted
        # (every single-type model — copper — and any pre-sorted frame), the
        # sort is the identity permutation, so the per-feed gather copies are
        # skipped entirely and the staging buffers are fed as-is (per-type
        # blocks are contiguous row slices).  Otherwise the gathers land
        # directly in the plan's persistent feed slots (``feed_buffer``) —
        # one pool serves staging and execution, no second scratch copy —
        # or in engine scratch on the ``use_plan=False`` oracle path.
        if total_loc == 0 or bool(np.all(types_cat[:-1] <= types_cat[1:])):
            self.stage_identity += 1
            sorted_types = types_cat
            sorted_rep = rep_of_row
            gidx_sorted = gidx
            bounds = np.searchsorted(types_cat, np.arange(cfg.n_types + 1))
            feed_vals = [
                em_n[bounds[t] : bounds[t + 1]] for t in range(cfg.n_types)
            ]
            ed_sorted, rij_sorted, nlist_sorted = ed_n, rij, nlist_g
        else:
            self.stage_gathers += 1
            dest = self.plan.feed_buffer if self.use_plan else scratch.get
            order = np.argsort(types_cat, kind="stable")
            sorted_types = types_cat[order]
            sorted_rep = rep_of_row[order]
            gidx_sorted = dest("atom_idx", (total_loc,), np.int64)
            np.take(gidx, order, out=gidx_sorted)
            ed_sorted = dest("ed_sorted", ed_n.shape)
            np.take(ed_n, order, axis=0, out=ed_sorted)
            rij_sorted = dest("rij_sorted", rij.shape)
            np.take(rij, order, axis=0, out=rij_sorted)
            nlist_sorted = dest("nlist_sorted", nlist_g.shape, np.int64)
            np.take(nlist_g, order, axis=0, out=nlist_sorted)
            feed_vals = []
            for t in range(cfg.n_types):
                idx_t = order[sorted_types == t]
                em_t = dest(f"em_t{t}", (idx_t.size, nnei, 4))
                np.take(em_n, idx_t, axis=0, out=em_t)
                feed_vals.append(em_t)

        # Feed values in the plan's positional order: per-type environment
        # rows, then the shared geometry tensors.  The tiny natoms feed is
        # staged into a persistent plan slot too (it joins the plan's arena
        # signature by value, so reuse is exact).
        if self.use_plan:
            natoms_feed = self.plan.feed_buffer("natoms", (1,), np.int64)
            natoms_feed[0] = total_atoms
        else:
            natoms_feed = np.array([total_atoms], dtype=np.int64)
        feed_vals += [
            ed_sorted,
            rij_sorted,
            nlist_sorted,
            gidx_sorted,
            natoms_feed,
        ]

        if self.use_plan:
            out = self.plan.run_list(feed_vals, session=model.session)
        else:
            # Reference oracle path: identical fetches/feeds via Session.run.
            feed_nodes = list(model.ph_env) + [
                model.ph_em_deriv,
                model.ph_rij,
                model.ph_nlist,
                model.ph_atom_idx,
                model.ph_natoms,
            ]
            fetches = [model._f_forces, model._f_net_deriv] + list(model._f_e_atoms)
            out = model.session.run(fetches, dict(zip(feed_nodes, feed_vals)))
        forces_all, net_deriv = out[0], out[1]
        e_atoms_t = [np.atleast_1d(e) for e in out[2:]]
        self.batch_evaluations += 1
        self.frames_evaluated += R

        # --- un-stack into per-replica results -----------------------------
        # dE/dd per slot (shared by all per-replica virials; identical to the
        # contraction ProdVirial performs on the serial path).
        slot = scratch.get("slot", (total_loc, nnei, 3))
        np.einsum("ijc,ijck->ijk", net_deriv, ed_sorted, out=slot)

        e_sorted = np.concatenate(e_atoms_t) if e_atoms_t else np.zeros(0)
        rep_per_type = [sorted_rep[sorted_types == t] for t in range(cfg.n_types)]

        results: list[PotentialResult] = []
        for r in range(R):
            system, nloc = systems[r], nlocs[r]
            local_types = system.types[:nloc]

            # Energy: per-type partial sums added in type order — the exact
            # reduction order of the serial graph (reduce_sum per type, then
            # a left-to-right add chain), so R=1 stays bitwise identical.
            energy = 0.0
            first = True
            for t in range(cfg.n_types):
                e_t = e_atoms_t[t]
                if R > 1:
                    e_t = e_t[rep_per_type[t] == r]
                part = np.sum(e_t)
                energy = part if first else energy + part
                first = False

            atom_e = np.empty(nloc)
            if R == 1:
                atom_e[gidx_sorted] = e_sorted
                virial = -np.einsum("ija,ijb->ab", rij_sorted, slot)
                # The graph output is a plan-arena buffer (overwritten by the
                # next evaluation); results hand the caller an owned copy.
                forces = forces_all.copy()
            else:
                rows_r = sorted_rep == r
                atom_e[gidx_sorted[rows_r] - own_base[r]] = e_sorted[rows_r]
                virial = -np.einsum(
                    "ija,ijb->ab", rij_sorted[rows_r], slot[rows_r]
                )
                spans = force_spans[r]
                if len(spans) == 1:
                    lo, count = spans[0]
                    forces = forces_all[lo : lo + count].copy()
                else:
                    # Locals-first ghost stacking: frame r's forces live in a
                    # local segment and a ghost segment; concatenating them
                    # restores the frame's own (locals, ghosts) row order.
                    forces = np.concatenate(
                        [forces_all[lo : lo + count] for lo, count in spans]
                    )
            atom_e += model.e0[local_types]
            total = float(energy + model.e0[local_types].sum())
            results.append(
                PotentialResult(total, forces, virial, atom_energies=atom_e)
            )
        return results

    # ------------------------------------------------------------ bucketing

    def evaluate_frames(
        self,
        frames: Sequence,
        buckets: Optional[Sequence[Sequence[int]]] = None,
        backend: str = "optimized",
    ) -> list[PotentialResult]:
        """Shape-bucketed evaluation: one batched graph run per bucket.

        ``frames`` are frame objects exposing ``system``, ``pair_i``,
        ``pair_j``, ``nloc`` (``None`` = all local) and ``pbc`` — see
        :class:`repro.dp.backend.ForceFrame`.  ``buckets`` is a partition of
        frame indices (every frame exactly once, uniform ``pbc`` per
        bucket); when omitted it is computed from :func:`frame_bucket_key`
        via :func:`plan_frame_buckets`.  Callers that own a steady frame
        population (the MD drivers) cache the partition across steps and
        rebucket only on reneighbor/migration —
        :class:`repro.dp.backend.ForceBackend` implements that policy.

        Results come back in frame order, each bitwise identical to
        evaluating its frame alone (the per-rank oracle).
        """
        frames = list(frames)
        if buckets is None:
            buckets = plan_frame_buckets(
                [frame_bucket_key(f.system, f.nloc, f.pbc) for f in frames]
            )
        results: list[Optional[PotentialResult]] = [None] * len(frames)
        for bucket in buckets:
            sub = [frames[i] for i in bucket]
            pbc = sub[0].pbc
            if any(f.pbc != pbc for f in sub):
                raise ValueError("a bucket must not mix pbc and open frames")
            nlocs = [
                f.system.n_atoms if f.nloc is None else int(f.nloc)
                for f in sub
            ]
            out = self.evaluate_batch(
                [f.system for f in sub],
                [(f.pair_i, f.pair_j) for f in sub],
                backend=backend,
                nlocs=nlocs,
                pbc=pbc,
            )
            self.bucket_evaluations += 1
            for i, res in zip(bucket, out):
                if results[i] is not None:
                    raise ValueError(f"frame {i} appears in two buckets")
                results[i] = res
        missing = [i for i, r in enumerate(results) if r is None]
        if missing:
            raise ValueError(f"buckets do not cover frames {missing}")
        return results  # type: ignore[return-value]
