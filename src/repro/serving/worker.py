"""The inference server: a pool of worker threads driving batched evaluations.

Architecture (the ROADMAP's "serving depth" rung)::

    clients                  queue                    worker pool
    ------- submit() --> [bounded FIFO, ---- pop_batch(only=model) --> worker "a"
    futures <----------   per-key deques \\-- pop_batch(only=model) --> worker "b"
                          + key-aware wakeups]        |  each: evaluate_batch
                                                      |  on its OWN engine,
                          results scattered back <----+  scatter to futures

Many client threads submit frames; each worker thread coalesces its share
into per-model micro-batches and runs each batch through a persistent
:class:`~repro.dp.batch.BatchedEvaluator` — whose graph executes as a
compiled execution plan (:mod:`repro.tfmini.plan`), so the steady-state
serving loop performs no graph traversal and no per-op output allocation.

Two pool shapes:

``workers="per-model"`` (default)
    One worker thread per registered model, parked on a key-aware queue
    condition so it only ever wakes for its own model's requests.  Each
    worker owns its model's registry engine exclusively; two-model traffic
    overlaps plan execution inside numpy's GIL-releasing BLAS/ufunc kernels
    instead of serializing behind one loop.  Per-model FIFO dispatch *and*
    completion order are preserved (one worker per model).

``workers=N``
    A shared pool of N workers, each taking whatever model heads the queue.
    A worker lazily acquires its **own** engine per model it serves (the
    registry engine is claimed by the first worker to need it; later
    workers build fresh ones), so N workers can run the same model's
    batches concurrently.  Per-model dispatch stays FIFO, but completion
    order across two in-flight batches of one model is not guaranteed.

**One-engine-one-thread invariant**: an engine's scratch pool and its
plan's buffer arenas are mutable run state, so an engine is only ever
*executed* by the single worker that owns it — never shared across threads
(``BatchedEvaluator`` guards against concurrent entry; see
:mod:`repro.dp.batch`).  Client threads touch only the locked queue, and
``executor_stats()`` reads are thread-safe counter snapshots.

Numerical contract: every request's result is **bitwise identical** to a
direct ``DeepPot.evaluate`` of the same frame, no matter which other
requests it shared a batch with or which worker interleaving executed it
(the engine's per-frame independence guarantee; asserted under genuinely
concurrent two-model load in ``tests/test_serving.py``).

Avoid calling ``model.evaluate`` on a model from another thread *while* the
server is processing requests for it: the model's default R=1 engine and
the server's engines hold separate scratch, but the profiling counters of a
shared session are not synchronized.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from repro.serving.metrics import ServerStats
from repro.serving.queue import (
    InferenceRequest,
    QueueFull,
    QuotaExceeded,
    RequestQueue,
    ResultCache,
    ServerClosed,
    WorkerCrashed,
    frame_content_key,
)
from repro.serving.scheduler import MicroBatchScheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import Future

    from repro.dp.model import DeepPot
    from repro.md.system import System
    from repro.serving.faults import FaultPlan


class _Worker:
    """One pool member: a thread plus the engines that thread owns.

    ``only`` is the model name a per-model worker is bound to (``None`` for
    shared-pool workers).  ``engines`` holds the evaluators this worker has
    acquired — the structural form of the one-engine-one-thread invariant:
    nothing in here is ever executed by another thread.

    ``inflight`` is the batch currently being evaluated (set before the
    engine runs, cleared after the futures resolve) — the supervisor reads
    it when the thread dies mid-batch, so crash-stranded requests can be
    failed exactly once.  ``respawns`` counts how many predecessors this
    worker slot has burned (the crash-loop bound).
    """

    __slots__ = ("wid", "only", "thread", "engines", "inflight", "respawns")

    def __init__(self, wid: str, only: Optional[str]):
        self.wid = wid
        self.only = only
        self.thread: Optional[threading.Thread] = None
        self.engines: dict[str, object] = {}
        self.inflight: Optional[list[InferenceRequest]] = None
        self.respawns = 0


class InferenceServer:
    """Multi-client, multi-model DP inference with dynamic micro-batching.

    Parameters
    ----------
    models:
        Optional mapping ``{name: DeepPot}`` to register at construction.
    max_batch, max_wait_us:
        Coalescing policy (see :class:`~repro.serving.scheduler.
        MicroBatchScheduler`).
    max_queue:
        Bounded queue depth — the backpressure limit (``<= 0``: unbounded).
    workers:
        ``"per-model"`` (default): one worker thread per registered model,
        key-aware wakeups, strict per-model FIFO.  An integer ``N``: a
        shared pool of N workers drawing on the whole queue (``workers=1``
        reproduces the original single-worker loop exactly).
    autostart:
        Start the worker pool immediately.  Benchmarks pass ``False`` (or
        use :meth:`paused`) to pre-load the queue and get a deterministic
        batch count: N pre-queued requests execute in exactly
        ``ceil(N / max_batch)`` batches per model.
    backend:
        Environment-operator backend forwarded to ``evaluate_batch``.
    max_per_client:
        Per-client admission quota: at most this many queued requests per
        ``client_id`` (0 = unlimited; submissions without a client id are
        exempt).  Excess submissions raise :class:`~repro.serving.queue.
        QuotaExceeded` instead of starving other clients.
    cache_size:
        Result-cache capacity in entries (0 = off, the default — caching
        changes batch counters, so it is opt-in).  Repeated frames (an
        idle MD client resubmitting an unchanged step, an active-learning
        screen re-harvesting) are served straight from the cache, bitwise
        identical to a fresh evaluation.
    faults:
        Optional :class:`~repro.serving.faults.FaultPlan` — deterministic
        fault injection for the worker loop (crashes, transient failures)
        and the admission path.  ``None`` (the default) injects nothing.
    max_respawns:
        Crash-loop bound: how many times one worker slot may be respawned
        after its thread dies mid-batch.  Past the bound the slot stays
        down (its model's requests wait until shutdown cancels them) —
        a deterministically poisoned model must not burn CPU forever.
    """

    def __init__(
        self,
        models: Optional[dict[str, "DeepPot"]] = None,
        *,
        max_batch: int = 8,
        max_wait_us: float = 1000.0,
        max_queue: int = 64,
        workers: Union[int, str] = "per-model",
        autostart: bool = True,
        backend: str = "optimized",
        max_per_client: int = 0,
        cache_size: int = 0,
        faults: Optional["FaultPlan"] = None,
        max_respawns: int = 8,
    ):
        from repro.dp.batch import BatchedEvaluator

        if workers != "per-model":
            try:
                workers = int(workers)
            except (TypeError, ValueError):
                raise ValueError(
                    f"workers must be 'per-model' or a positive integer, "
                    f"got {workers!r}"
                ) from None
            if workers < 1:
                raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._engine_cls = BatchedEvaluator
        self._models: dict[str, "DeepPot"] = {}
        self._engines: dict[str, object] = {}
        self.backend = backend
        self.faults = faults
        self.max_respawns = int(max_respawns)
        self.stats = ServerStats()
        self.queue = RequestQueue(
            maxsize=max_queue,
            on_drop=self.stats.record_cancelled,
            max_per_client=max_per_client,
            faults=faults,
        )
        self.cache = ResultCache(max_entries=cache_size, stats=self.stats)
        self.scheduler = MicroBatchScheduler(
            self.queue, max_batch=max_batch, max_wait_us=max_wait_us
        )
        self._gate = threading.Event()  # set = workers may take batches
        self._pool_lock = threading.Lock()  # guards _workers mutation
        self._workers: list[_Worker] = []
        self._started = False  # start() called (even with zero models yet)
        self._engine_lock = threading.Lock()
        self._claimable: dict[str, object] = {}  # registry engines, unclaimed
        if models:
            for name, model in models.items():
                self.register(name, model)
        if autostart:
            self.start()

    # ------------------------------------------------------------- registry

    def register(self, name: str, model: "DeepPot") -> "InferenceServer":
        """Host ``model`` under ``name`` with its own persistent evaluator.

        The evaluator's compiled execution plan is built here (one graph
        topo-sort, at registration) so the first served request only pays
        the per-batch-shape arena warm-up, never graph compilation.  On a
        running per-model pool, registration also spawns the new model's
        worker.
        """
        if name in self._models:
            raise ValueError(f"model {name!r} already registered")
        self._models[name] = model
        engine = self._engine_cls(model)
        engine.plan  # compile now, off the serving hot path
        self._engines[name] = engine
        if self.workers != "per-model":
            # Shared pools hand registry engines to the first worker that
            # needs them; per-model workers read the registry directly.
            with self._engine_lock:
                self._claimable[name] = engine
        # A started per-model pool grows a worker per registration — even
        # when this is the FIRST model (zero workers alive, so `running`
        # alone cannot stand in for "started").
        if (
            self.workers == "per-model"
            and self._started
            and not self.queue.closed
        ):
            self._spawn_worker(name, only=name)
        return self

    def model_names(self) -> list[str]:
        return sorted(self._models)

    def executor_stats(self) -> dict[str, dict]:
        """Per-engine compiled-plan counters (deterministic, lock-free
        snapshots — safe to call from a monitoring thread mid-traffic).

        Per-model pools report one entry per model (that model's worker
        owns exactly one engine).  Shared pools report one entry per
        *acquired* engine, keyed ``model@worker`` (plus any still-unclaimed
        registry engine under its bare model name).  For each engine:
        ``topo_sorts`` (1 per engine lifetime), ``runs``, ``arena_builds``
        (one per distinct batch shape seen), ``arena_allocs``, the colored
        arena footprint (``arena_nbytes``) next to the FIFO baseline it
        replaced (``arena_nbytes_fifo``) — a steady workload stops growing
        everything except ``runs``.
        """
        out: dict[str, dict] = {}

        def add(key: str, engine) -> None:
            plan = engine.plan
            out[key] = {
                "topo_sorts": plan.stats.topo_sorts,
                "runs": plan.stats.runs,
                "arena_builds": plan.stats.arena_builds,
                "arena_allocs": plan.alloc_count(),
                "arena_nbytes": plan.arena_nbytes(),
                "arena_nbytes_fifo": plan.fifo_arena_nbytes(),
            }

        if self.workers == "per-model":
            for name, engine in list(self._engines.items()):
                add(name, engine)
            return out
        claimed: set[int] = set()
        for w in list(self._workers):
            for name, engine in list(w.engines.items()):
                add(f"{name}@{w.wid}", engine)
                claimed.add(id(engine))
        for name, engine in list(self._engines.items()):
            if id(engine) not in claimed:
                add(name, engine)
        return out

    def model(self, name: str) -> "DeepPot":
        return self._models[name]

    def invalidate_cache(self, model: Optional[str] = None) -> int:
        """Drop cached results (one model's, or all) — the hot-swap hook:
        call this whenever a model's weights change so stale results can
        never be served.  Returns the number of entries dropped."""
        return self.cache.invalidate(model)

    @classmethod
    def from_zoo(
        cls, names: Sequence[str] = ("water",), cache_dir: Optional[str] = None,
        **kwargs,
    ) -> "InferenceServer":
        """A server hosting pre-trained zoo models.

        Names are ``water`` / ``copper``, optionally suffixed with the
        network precision: ``water-double`` (default) or ``water-single``
        (the fp32-network mixed-precision engine; ``-mixed`` is accepted as
        an alias).  Models are trained on first use and cached by the zoo.
        """
        from repro import zoo

        builders = {"water": zoo.get_water_model, "copper": zoo.get_copper_model}
        # Resolve (and validate) every model BEFORE constructing the server:
        # with autostart a bad name would otherwise leak parked worker
        # threads attached to a server nobody holds a reference to.
        models: dict[str, "DeepPot"] = {}
        for name in names:
            base, _, prec = name.partition("-")
            if base not in builders:
                raise KeyError(
                    f"unknown zoo model {name!r} (expected water/copper"
                    f"[-double|-single])"
                )
            prec = {"": "double", "double": "double",
                    "single": "mixed", "mixed": "mixed"}.get(prec)
            if prec is None:
                raise KeyError(f"unknown precision suffix in {name!r}")
            models[name] = builders[base](precision=prec, cache_dir=cache_dir)
        return cls(models, **kwargs)

    # ------------------------------------------------------------ submission

    def submit(
        self,
        model: str,
        system: "System",
        pair_i: Optional[np.ndarray] = None,
        pair_j: Optional[np.ndarray] = None,
        block: bool = True,
        timeout: Optional[float] = None,
        priority: int = 0,
        deadline: Optional[float] = None,
        client_id: Optional[str] = None,
        nloc: Optional[int] = None,
        pbc: bool = True,
    ) -> "Future":
        """Queue one frame for evaluation; returns its future.

        The neighbor pair list is computed here (caller's thread) when not
        supplied, keeping the worker threads free for graph execution.
        ``priority`` (bigger dispatches sooner) and ``deadline`` (seconds
        from now; EDF within a priority class) order the request among its
        model's pending set; ``client_id`` attributes it to one submitter
        for quota accounting; ``nloc``/``pbc`` carry the domain-
        decomposition frame mode (see :class:`~repro.dp.backend.
        ForceFrame`).  When the result cache is on and holds this exact
        frame, the returned future is already resolved — bitwise identical
        to a fresh evaluation — and nothing enters the queue.

        Raises :class:`KeyError` for an unregistered model,
        :class:`QueueFull` under backpressure, :class:`~repro.serving.
        queue.QuotaExceeded` over quota, :class:`ServerClosed` after
        shutdown.
        """
        if model not in self._models:
            raise KeyError(
                f"model {model!r} not registered (have {self.model_names()})"
            )
        if pair_i is None or pair_j is None:
            from repro.md.neighbor import neighbor_pairs

            pair_i, pair_j = neighbor_pairs(
                system, self._models[model].config.rcut
            )
        request = InferenceRequest(
            model=model,
            system=system,
            pair_i=pair_i,
            pair_j=pair_j,
            priority=int(priority),
            deadline=(
                None if deadline is None else time.perf_counter() + deadline
            ),
            client_id=client_id,
            nloc=nloc,
            pbc=pbc,
        )
        # Serving metadata for callers/tests — attached BEFORE the request
        # becomes visible to any worker: a worker may resolve the future
        # (and fire done-callbacks that read ``future.request``) the instant
        # the put returns.
        request.future.request = request
        # Count the submission BEFORE the request becomes visible to the
        # workers, so requests_completed can never transiently exceed
        # requests_submitted; a refused put takes the count back.
        self.stats.record_submit()
        if self.cache.enabled:
            key = frame_content_key(model, system, pair_i, pair_j, nloc, pbc)
            cached = self.cache.get(key)  # counts the hit/miss
            if cached is not None:
                # Served without touching the queue: the hit was recorded
                # as a completion, so conservation holds with zero batches.
                request.future.set_result(cached)
                return request.future
            request.cache_key = key
        try:
            self.queue.put(request, block=block, timeout=timeout)
        except QuotaExceeded:
            self.stats.undo_submit()
            self.stats.record_quota_reject()
            raise
        except QueueFull:
            self.stats.undo_submit()
            self.stats.record_reject()
            raise
        except ServerClosed:
            self.stats.undo_submit()
            raise
        return request.future

    def client(self, model: Optional[str] = None):
        """An :class:`~repro.serving.client.InferenceClient` bound to
        ``model`` (defaults to the sole registered model)."""
        from repro.serving.client import InferenceClient

        if model is None:
            if len(self._models) != 1:
                raise ValueError(
                    f"server hosts {self.model_names()}; pick one explicitly"
                )
            model = next(iter(self._models))
        return InferenceClient(self, model)

    # ------------------------------------------------------------- lifecycle

    @property
    def running(self) -> bool:
        return any(
            w.thread is not None and w.thread.is_alive()
            for w in list(self._workers)
        )

    def worker_ids(self) -> list[str]:
        """Ids of the pool's workers (model names in per-model mode)."""
        return [w.wid for w in list(self._workers)]

    def _spawn_worker(
        self, wid: str, only: Optional[str], respawns: int = 0
    ) -> _Worker:
        worker = _Worker(wid, only)
        worker.respawns = respawns
        worker.thread = threading.Thread(
            target=self._supervised_loop,
            args=(worker,),
            name=f"repro-serving-{wid}",
            daemon=True,
        )
        with self._pool_lock:
            # Append + start are atomic w.r.t. stop()'s snapshot: a worker
            # visible in the pool always has a started (joinable) thread.
            self._workers.append(worker)
            worker.thread.start()
        return worker

    def start(self) -> "InferenceServer":
        if self.running:
            return self
        if self.queue.closed:
            raise ServerClosed("server was stopped; build a new one")
        self._gate.set()
        self._started = True
        if self.workers == "per-model":
            spawned = {
                w.wid for w in list(self._workers) if w.thread.is_alive()
            }
            for name in self._models:
                if name not in spawned:
                    self._spawn_worker(name, only=name)
        else:
            for i in range(self.workers):
                self._spawn_worker(f"pool-{i}", only=None)
        return self

    def pause(self) -> None:
        """Stop taking new batches (in-flight batches finish first)."""
        self._gate.clear()

    def resume(self) -> None:
        self._gate.set()
        self.queue.kick()

    @contextmanager
    def paused(self):
        """``with server.paused(): submit(...)`` — requests accumulate in
        the queue, then coalesce maximally on resume.  Batch counts are
        fully deterministic when the server is idle at pause time (the
        benchmark pattern); under live traffic a batch a worker is
        already gathering still executes."""
        self.pause()
        try:
            yield self
        finally:
            self.resume()

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Shut down the worker pool.

        ``drain=True`` completes every queued request first; ``drain=False``
        cancels pending futures (waiters get ``CancelledError``).  In-flight
        batches always complete — results are never discarded mid-execution.
        Draining needs live workers: on a server that was never started,
        pending requests are cancelled either way.
        """
        if drain and self._workers:
            self.queue.close()
        else:
            pending = self.queue.close_and_drain()
            dropped = sum(1 for r in pending if r.future.cancel())
            self.stats.record_cancelled(dropped)
        if not self._workers:
            return
        self._gate.set()  # a paused pool must still wind down
        self.queue.kick()
        deadline = (
            None if timeout is None else time.perf_counter() + timeout
        )
        # Snapshot under the pool lock: a worker crashing during the drain
        # removes itself from the pool (no respawn once the queue is
        # closed), so the live list may shrink under us; joining an
        # already-removed worker is fine, and the lock guarantees every
        # snapshotted thread has been started.
        with self._pool_lock:
            workers = list(self._workers)
        for w in workers:
            w.thread.join(
                None
                if deadline is None
                else max(0.0, deadline - time.perf_counter())
            )
        stuck = [w.wid for w in workers if w.thread.is_alive()]
        if stuck:  # pragma: no cover - join timeout
            raise RuntimeError(f"serving workers did not stop in time: {stuck}")

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop(drain=exc == (None, None, None))

    # ------------------------------------------------------------ worker loop

    def _supervised_loop(self, worker: _Worker) -> None:
        """The worker thread's real target: ``_serve_loop`` under
        supervision.  An unhandled exception anywhere in the loop (an
        engine bug outside the per-batch guard, a scheduler defect, an
        injected :class:`~repro.serving.faults.InjectedWorkerCrash`) used
        to strand the batch's futures forever *and* silently halve the
        pool; now it lands in :meth:`_on_worker_crash`, which fails the
        in-flight futures and respawns the slot."""
        try:
            self._serve_loop(worker)
        except BaseException as exc:
            self._on_worker_crash(worker, exc)

    def _serve_loop(self, worker: _Worker) -> None:
        while True:
            batch = self.scheduler.next_batch(gate=self._gate, only=worker.only)
            if batch is None:
                return
            self._run_batch(batch, worker)

    def _on_worker_crash(self, worker: _Worker, exc: BaseException) -> None:
        """Contain one worker thread's death (runs on the dying thread).

        1. fail the crashed batch's unresolved futures with
           :class:`WorkerCrashed` — each counted failed exactly once (the
           crashed batch never reached ``record_batch``), so conservation
           holds through the crash;
        2. drop the model's result-cache entries — the dead engine's state
           is suspect mid-batch, so nothing it produced may be replayed
           (counted in ``cache_invalidations``);
        3. respawn the slot with a **fresh engine** (per-model pools
           replace the registry engine; shared-pool replacements build
           their own lazily in :meth:`_engine_for`), unless the server is
           stopping or the slot hit :attr:`max_respawns`.
        """
        live = worker.inflight or []
        worker.inflight = None
        crash = WorkerCrashed(
            f"worker {worker.wid!r} died mid-batch: "
            f"{type(exc).__name__}: {exc}"
        )
        failed = 0
        for r in live:
            if not r.future.done():
                r.future.set_exception(crash)
                failed += 1
        self.stats.record_worker_crash(failed)
        with self._pool_lock:
            if worker in self._workers:
                self._workers.remove(worker)
        dropped = 0
        names = (
            [worker.only] if worker.only is not None else sorted(worker.engines)
        )
        for name in names:
            dropped += self.cache.invalidate(name)
        if dropped:
            self.stats.record_cache_invalidation(dropped)
        if self.queue.closed or not self._started:
            return  # shutting down: stop() drains/cancels the rest
        if worker.respawns >= self.max_respawns:
            return  # crash loop: leave the slot down
        if worker.only is not None:
            # The replacement gets a fresh registry engine — the crashed
            # one's scratch pool and plan arenas died mid-run.
            engine = self._engine_cls(self._models[worker.only])
            engine.plan
            self._engines[worker.only] = engine
        self.stats.record_worker_respawn()
        self._spawn_worker(worker.wid, worker.only, respawns=worker.respawns + 1)

    def _engine_for(self, worker: _Worker, name: str):
        """The engine ``worker`` executes ``name``'s batches on.

        Per-model workers read the registry entry every batch (there is
        exactly one consumer per model, so the entry is effectively owned
        by that worker; tests may swap it to inject failures).  Shared-pool
        workers acquire engines for themselves: the registry engine goes to
        the first worker that needs the model, later workers build their
        own — two threads never execute one engine.
        """
        if worker.only is not None:
            return self._engines[name]
        engine = worker.engines.get(name)
        if engine is None:
            with self._engine_lock:
                engine = self._claimable.pop(name, None)
            if engine is None:
                engine = self._engine_cls(self._models[name])
                # Compile before publishing: executor_stats() may reach
                # engine.plan from a monitoring thread the moment this
                # engine appears in worker.engines, and lazy compilation is
                # not safe to race (nor welcome on the serving hot path).
                engine.plan
            worker.engines[name] = engine
        return engine

    def _run_batch(self, batch: list[InferenceRequest], worker: _Worker) -> None:
        dispatched_at = time.perf_counter()
        live = [r for r in batch if r.future.set_running_or_notify_cancel()]
        if len(live) < len(batch):
            # Cancelled between queue extraction and dispatch (the queue
            # already dropped — and counted — anything cancelled earlier).
            self.stats.record_cancelled(len(batch) - len(live))
        if not live:
            return
        name = live[0].model
        engine = self._engine_for(worker, name)
        seqs = tuple(r.seq for r in live)
        waits = tuple(dispatched_at - r.enqueued_at for r in live)
        # Published before evaluation so the supervisor can fail exactly
        # these futures if this thread dies mid-batch.
        worker.inflight = live
        try:
            if self.faults is not None:
                self.faults.on_worker_batch(worker.wid, name)
            if any(r.nloc is not None or not r.pbc for r in live):
                # Domain-decomposition frames in the batch (explicit ghosts
                # and/or open boundaries): requests duck-type ForceFrame, so
                # the shape-bucketed path evaluates the mixed batch with the
                # same per-frame bitwise guarantee.
                results = engine.evaluate_frames(live, backend=self.backend)
            else:
                results = engine.evaluate_batch(
                    [r.system for r in live],
                    [(r.pair_i, r.pair_j) for r in live],
                    backend=self.backend,
                )
        except BaseException as exc:
            from repro.serving.faults import InjectedWorkerCrash

            if isinstance(exc, InjectedWorkerCrash):
                # Simulated unhandled bug: escape the per-batch guard so
                # the thread dies with its futures unresolved — the
                # supervisor (not this handler) must contain it.
                raise
            # One poisoned frame fails its whole batch, never the server:
            # the exception lands in each affected future and the loop moves
            # on to the next batch.
            for r in live:
                r.future.set_exception(exc)
            self.stats.record_batch(
                name, seqs, waits, failed=True, worker=worker.wid
            )
            worker.inflight = None
            return
        for r, result in zip(live, results):
            if r.cache_key is not None:
                self.cache.put(r.cache_key, name, result)
            r.future.set_result(result)
        self.stats.record_batch(name, seqs, waits, worker=worker.wid)
        worker.inflight = None
