"""Command-line interface: ``python -m repro <command>``.

Commands
--------
info        — package/system inventory and model-zoo status
scaling     — regenerate the Summit scaling tables (Tables 1/4, Figs 5/6)
validate    — quick self-check: DP forces vs finite differences,
              distributed-vs-serial agreement, a distributed-ensemble
              bitwise smoke, a 2-client serving round trip, and a static
              plan verification (seconds, not the full suite)
serve       — run the inference service as a socket daemon (the
              repro.serving.net front-end; SIGTERM drains gracefully and
              the exit code asserts request conservation)
serve-bench — closed-loop load generator against the micro-batching
              inference service (N clients, deterministic counters +
              throughput report); ``--socket`` drives it over real TCP
              with mixed MD + interactive + cache-hit traffic
md          — deterministic tiny MD run with optional exact-restart
              checkpointing (``--checkpoint-dir``) and a self-SIGTERM
              switch (``--sigterm-at``) for kill/resume testing
resume      — restore an ``md`` checkpoint and finish the trajectory
              (bitwise identical to the uninterrupted run)
chaos-smoke — seeded fault-injection scenario: worker crash + severed
              connection + duplicated frame against a live daemon, plus a
              SIGTERM-interrupted + resumed MD run — asserts conservation
              and bitwise identity, exit code 0/1 (the CI chaos job)
lint        — concurrency/invariant linter over the source tree
              (repro.analysis.lint; rules L101-L111)
check-plans — compile every zoo model's evaluate/train/serving plans and
              run the static plan verifier (repro.analysis.plancheck;
              rules P101-P108); ``--report FILE`` also writes the
              per-plan metrics JSON
plan-report — per-plan compiler metrics across the zoo matrix: record
              count and arena bytes before/after interference coloring
              (JSON to stdout or ``--out FILE``)
"""

from __future__ import annotations

import argparse
import sys


def cmd_info(_args) -> int:
    import numpy

    import repro
    from repro.zoo import DEFAULT_CACHE

    print("repro — reproduction of Jia et al., SC '20 (Gordon Bell)")
    print(f"package: {repro.__file__}")
    print(f"numpy:   {numpy.__version__}")
    print("\nsubsystems:")
    for name, what in [
        ("repro.tfmini", "graph tensor engine (TensorFlow substitute)"),
        ("repro.md", "LAMMPS-like MD substrate + multi-replica ensembles"),
        ("repro.oracles", "ab-initio stand-in potentials"),
        ("repro.dp", "Deep Potential core + batched multi-frame engine"),
        ("repro.serving", "micro-batching inference service (multi-worker pool)"),
        ("repro.parallel", "simulated MPI + domain decomposition"),
        ("repro.perfmodel", "calibrated Summit performance model"),
        ("repro.analysis", "RDF / MSD+diffusion / CNA / structures / stress"),
    ]:
        print(f"  {name:<18} {what}")

    # Importing the model registers the DP custom ops, so the coverage
    # count reflects the full registry the compiled plans execute against.
    import repro.dp.model  # noqa: F401
    import repro.tfmini.passes  # noqa: F401
    from repro.tfmini.ops import out_kernel_coverage

    cov = out_kernel_coverage()
    line = (f"\nout= kernel coverage: {cov['covered']}/{cov['eligible']} "
            f"eligible ops (view/structural ops exempt)")
    if cov["missing"]:
        line += "\n  missing: " + ", ".join(cov["missing"])
    print(line)
    print(f"\nmodel zoo cache: {DEFAULT_CACHE}")
    if DEFAULT_CACHE.exists():
        for p in sorted(DEFAULT_CACHE.glob("*.npz")):
            print(f"  cached: {p.name}")
    else:
        print("  (empty — first example run will train the tiny models)")
    return 0


def cmd_scaling(_args) -> int:
    from repro.perfmodel.report import print_all

    print_all()
    return 0


def cmd_validate(_args) -> int:
    import numpy as np

    from repro.analysis.structures import water_box
    from repro.dp.model import DeepPot, DPConfig
    from repro.md import boltzmann_velocities
    from repro.md.neighbor import neighbor_pairs
    from repro.parallel import DistributedEnsembleSimulation, DistributedSimulation

    print("1/6 building a tiny DP model and a 81-atom water cell...")
    model = DeepPot(DPConfig.tiny())
    sys = water_box((3, 3, 3), seed=0)
    pi, pj = neighbor_pairs(sys, model.config.rcut)
    res = model.evaluate(sys, pi, pj)

    print("2/6 checking forces against finite differences...")
    eps, worst = 1e-5, 0.0
    for atom, comp in ((0, 0), (10, 1), (40, 2)):
        p0 = sys.positions[atom, comp]
        sys.positions[atom, comp] = p0 + eps
        a, b = neighbor_pairs(sys, model.config.rcut)
        e_plus = model.evaluate(sys, a, b).energy
        sys.positions[atom, comp] = p0 - eps
        a, b = neighbor_pairs(sys, model.config.rcut)
        e_minus = model.evaluate(sys, a, b).energy
        sys.positions[atom, comp] = p0
        num = -(e_plus - e_minus) / (2 * eps)
        worst = max(worst, abs(num - res.forces[atom, comp]))
    print(f"    max |F_analytic - F_fd| = {worst:.2e} eV/Å")
    ok_fd = worst < 1e-7

    print("3/6 checking distributed == serial...")
    big = water_box((4, 4, 4), seed=1)
    boltzmann_velocities(big, 300.0, seed=2)
    a, b = neighbor_pairs(big, model.config.rcut)
    serial_forces = model.evaluate(big, a, b).forces
    dist = DistributedSimulation(big.copy(), model, grid=(2, 1, 1), dt=5e-4, skin=1.0)
    diff = float(np.abs(dist.forces_now() - serial_forces).max())
    print(f"    max |F_dist - F_serial| = {diff:.2e} eV/Å")
    ok_dist = diff < 1e-10

    print("4/6 checking distributed ensemble == independent runs (bitwise)...")
    R, grid = 2, (2, 1, 1)
    ens = DistributedEnsembleSimulation.from_system(
        big, model, n_replicas=R, temperature=300.0, seed=5,
        grid=grid, dt=5e-4, skin=1.0, rebuild_every=4,
    )
    before = ens.force_backend.evaluations
    n_steps = 4
    ens.run(n_steps)
    evals = ens.force_backend.evaluations - before
    ok_ens = True
    for k in range(R):
        solo_sys = big.copy()
        boltzmann_velocities(solo_sys, 300.0, seed=5 + k)
        solo = DistributedSimulation(
            solo_sys, model, grid=grid, dt=5e-4, skin=1.0, rebuild_every=4,
        )
        solo.run(n_steps)
        ok_ens = ok_ens and np.array_equal(
            ens.replicas[k].current_system().positions,
            solo.current_system().positions,
        ) and np.array_equal(ens.replicas[k].forces_now(), solo.forces_now())
    frames_per_step = R * int(np.prod(grid))
    ok_ens = ok_ens and evals < n_steps * frames_per_step
    print(
        f"    {R}x{grid} replicas: {evals} batched evaluations for "
        f"{n_steps} steps x {frames_per_step} frames "
        f"({'bitwise identical to' if ok_ens else 'MISMATCH vs'} "
        f"independent runs)"
    )

    print("5/6 checking serving == direct (2-client micro-batch smoke)...")
    from repro.serving import (
        InferenceServer,
        perturbed_frames,
        run_closed_loop_clients,
        served_matches_direct,
    )

    frames = perturbed_frames(sys, 4, seed0=40, scale=0.01)
    server = InferenceServer({"tiny": model}, max_batch=4, max_wait_us=2000)
    try:
        served = run_closed_loop_clients(
            server, "tiny", {0: frames[:2], 1: frames[2:]}, timeout=60
        )
        ok_serve = sum(len(r) for r in served.values()) == 4 and all(
            served_matches_direct(model, frame, result)
            for results in served.values()
            for frame, result in results
        )
    except RuntimeError as exc:
        print(f"    serving round trip failed: {exc}")
        ok_serve = False
    finally:
        server.stop()
    snap = server.stats.snapshot()
    print(f"    {snap['requests_completed']} requests in {snap['batches']} "
          f"batches (occupancy {snap['occupancy']:.1f}); served results "
          f"{'bitwise identical to' if ok_serve else 'MISMATCH vs'} "
          f"direct evaluate")

    print("6/6 statically verifying the compiled evaluate plan "
          "(liveness/alias/shape/dtype)...")
    from repro.analysis.plancheck import dp_feed_spec
    from repro.dp.batch import BatchedEvaluator

    engine = BatchedEvaluator(model)
    engine.evaluate_batch([sys], [(pi, pj)])  # warm one arena
    report = engine.plan.verify(spec=dp_feed_spec(model), check_values=True)
    print(f"    {report.summary()}")
    ok_plan = report.ok

    if ok_fd and ok_dist and ok_ens and ok_serve and ok_plan:
        print("\nvalidation PASSED")
        return 0
    print("\nvalidation FAILED")
    return 1


def _bench_tiny_model():
    """The deterministic tiny model every socket-bench process builds.

    Construction is fully seeded, so a daemon started by ``repro serve
    --tiny`` and a bench started by ``repro serve-bench --socket --tiny
    --connect`` hold bitwise-identical weights — the cross-process bitwise
    spot checks need no weight shipping.
    """
    from repro.dp.model import DeepPot, DPConfig

    return DeepPot(DPConfig.tiny(sel=(8, 16), rcut=3.0))


def cmd_serve(args) -> int:
    """Run the inference service as a standalone socket daemon.

    Foreground process: prints the listening address, serves until SIGTERM
    or SIGINT, then drains gracefully — queued requests complete, results
    flush to their connections, and the exit status asserts conservation
    (submitted == completed + failed + cancelled).
    """
    import json
    import signal
    from pathlib import Path

    from repro.serving import InferenceServer, ServingDaemon

    common = dict(
        max_batch=args.max_batch,
        max_wait_us=args.max_wait_us,
        max_queue=args.max_queue,
        workers=args.workers,
        max_per_client=args.max_per_client,
        cache_size=args.cache,
    )
    if args.tiny:
        server = InferenceServer({"water-tiny": _bench_tiny_model()}, **common)
    else:
        names = [m.strip() for m in args.models.split(",") if m.strip()]
        server = InferenceServer.from_zoo(names, **common)
    stats_path = None
    if args.checkpoint_dir:
        # Lifetime counters survive daemon restarts: restore the last
        # cleanly-drained snapshot, persist a fresh one at drain time.
        stats_path = Path(args.checkpoint_dir) / "serving-stats.json"
        if stats_path.exists():
            server.stats.restore(json.loads(stats_path.read_text()))
            print(
                f"repro serve: restored lifetime counters from {stats_path}",
                flush=True,
            )
    daemon = ServingDaemon(
        server, host=args.host, port=args.port,
        idle_timeout=args.idle_timeout,
    ).start()
    host, port = daemon.address
    print(
        f"repro serve: listening on {host}:{port} "
        f"(models: {', '.join(server.model_names())}; "
        f"max_batch={args.max_batch}, cache={args.cache}, "
        f"max_per_client={args.max_per_client})",
        flush=True,
    )

    def handle(signum, _frame):
        print(
            f"repro serve: caught {signal.Signals(signum).name}, draining...",
            flush=True,
        )
        daemon.stop(drain=True)

    signal.signal(signal.SIGTERM, handle)
    signal.signal(signal.SIGINT, handle)
    while not daemon.wait(1.0):
        pass
    s = server.stats.snapshot()
    print(server.stats.report())
    if stats_path is not None:
        stats_path.parent.mkdir(parents=True, exist_ok=True)
        stats_path.write_text(json.dumps(s, indent=2, sort_keys=True))
        print(f"repro serve: lifetime counters saved to {stats_path}",
              flush=True)
    conserved = s["requests_submitted"] == (
        s["requests_completed"]
        + s["requests_failed"]
        + s["requests_cancelled"]
    )
    print(
        f"drain {'clean' if conserved else 'LEAKED REQUESTS'}: "
        f"{s['requests_submitted']} submitted == "
        f"{s['requests_completed']} completed + {s['requests_failed']} failed "
        f"+ {s['requests_cancelled']} cancelled: "
        f"{'OK' if conserved else 'VIOLATED'}",
        flush=True,
    )
    return 0 if conserved else 1


def _serve_bench_socket(args) -> int:
    """serve-bench over real TCP: mixed MD + interactive + cache traffic.

    Either spins a local :class:`~repro.serving.net.ServingDaemon`
    (``--socket``) or attaches to a running ``repro serve`` daemon
    (``--connect host:port`` — the CI smoke path).  The traffic mix:

    * ``--clients`` interactive closed-loop SocketClients (one connection
      each, single request in flight — cross-client coalescing only);
    * one MD client: a ``Simulation`` stepping through
      ``BackendPotential(ServingForceBackend(SocketClient))``, verified
      bitwise against a local in-process trajectory;
    * one cache client re-submitting an identical frame (a deterministic
      cache hit whenever the daemon's cache is on).

    Deterministic asserts (never wall clock): completed counts, bitwise
    spot checks, batches < requests, >= 1 cache hit, and conservation over
    the bench's own traffic window.
    """
    import time

    import numpy as np

    from repro.analysis.structures import water_box
    from repro.dp.backend import BackendPotential, ServingForceBackend
    from repro.dp.pair import DeepPotPair
    from repro.md.neighbor import fitted_neighbor_list
    from repro.md.simulation import Simulation
    from repro.serving import (
        InferenceServer,
        ServingDaemon,
        SocketClient,
        perturbed_frames,
        run_closed_loop_clients,
        served_matches_direct,
    )

    if not args.tiny:
        print("serve-bench --socket requires --tiny: the daemon and the "
              "bench must construct the same deterministic model for the "
              "bitwise checks")
        return 2
    name = "water-tiny"
    model = _bench_tiny_model()  # local twin of the daemon's model
    base = water_box((2, 2, 2), seed=0)

    daemon = None
    if args.connect:
        address = args.connect
        print(f"attaching to daemon at {address}")
    else:
        server = InferenceServer(
            {name: _bench_tiny_model()},
            max_batch=args.max_batch,
            max_wait_us=args.max_wait_us,
            max_queue=args.max_queue,
            workers=args.workers,
            cache_size=args.cache,
        )
        daemon = ServingDaemon(server).start()
        address = daemon.address
        print(f"local daemon on {address[0]}:{address[1]}")

    # connect_retry rides out the daemon-still-binding race (the CI smoke
    # starts the daemon and the bench back to back): first-connect
    # ECONNREFUSED is retried with capped exponential backoff inside the
    # window instead of failing the whole bench.
    probe = SocketClient(
        address, name, client="bench-probe",
        connect_retry=args.connect_retry,
    )
    try:
        cache_on = probe.limits.get("cache_size", 0) > 0
        start = probe.stats()  # the daemon may be long-running: delta counters

        n_clients, n_requests = args.clients, args.requests
        frames = {
            tid: perturbed_frames(base, n_requests, seed0=1000 * (tid + 1))
            for tid in range(n_clients)
        }
        t0 = time.perf_counter()

        # interactive closed-loop clients, one TCP connection each
        served = run_closed_loop_clients(
            None, None, frames, timeout=300,
            join_timeout=270.0 if args.tiny else None,
            client_factory=lambda tid: SocketClient(
                address, name, client=f"bench-{tid}",
                connect_retry=args.connect_retry,
            ),
        )

        # MD client: a Simulation whose forces come from the daemon
        md_steps = args.md_steps
        md_sys = base.copy()
        with SocketClient(address, name, client="bench-md") as md_client:
            sim = Simulation(
                md_sys,
                BackendPotential(
                    ServingForceBackend(md_client), cutoff=md_client.cutoff
                ),
                dt=0.0005,
                neighbor=fitted_neighbor_list(md_sys, md_client.cutoff),
            )
            sim.run(md_steps)
        ref_sys = base.copy()
        ref = Simulation(
            ref_sys, DeepPotPair(model), dt=0.0005,
            neighbor=fitted_neighbor_list(ref_sys, model.config.rcut),
        )
        ref.run(md_steps)
        md_ok = np.array_equal(md_sys.positions, ref_sys.positions)

        # cache client: identical frame twice — a deterministic hit
        hit_frame = perturbed_frames(base, 1, seed0=77)[0]
        probe.evaluate(hit_frame, timeout=300)
        probe.evaluate(hit_frame, timeout=300)

        wall = time.perf_counter() - t0
        end = probe.stats()
    finally:
        probe.close()

    d = {k: end[k] - start[k] for k in (
        "requests_submitted", "requests_completed", "requests_failed",
        "requests_cancelled", "batches", "frames", "cache_hits",
        "cache_misses",
    )}
    total = d["requests_completed"]
    print(f"\n{total} requests in {wall:.2f} s over TCP "
          f"({total / wall:.1f} frames/s) — "
          f"{d['batches']} batches, {d['frames']} batched frames, "
          f"{d['cache_hits']} cache hits / {d['cache_misses']} misses")

    checks = {
        "all interactive requests served": (
            sum(len(r) for r in served.values()) == n_clients * n_requests
        ),
        "interactive results bitwise vs direct": all(
            served_matches_direct(model, *served[tid][-1])
            for tid in range(n_clients)
        ),
        f"MD trajectory over socket bitwise vs in-process ({md_steps} steps)":
            md_ok,
        "conservation over the bench window": (
            d["requests_submitted"]
            == d["requests_completed"] + d["requests_failed"]
            + d["requests_cancelled"]
        ),
    }
    if cache_on:
        checks[">= 1 deterministic cache hit"] = d["cache_hits"] >= 1
        # every batch carries >= 1 frame and the hit produced none, so the
        # coalescing inequality is deterministic, not timing-dependent
        checks["batches < requests (coalescing)"] = d["batches"] < total
    else:
        print("note: daemon cache is off — cache-hit checks skipped "
              "(start it with --cache N)")
    for what, ok in checks.items():
        print(f"  {'PASS' if ok else 'FAIL'}  {what}")

    if daemon is not None:
        daemon.stop(drain=True)
        print(daemon.server.stats.report())
    return 0 if all(checks.values()) else 1


def cmd_serve_bench(args) -> int:
    """Closed-loop load generation against the micro-batching service.

    N client threads each submit ``--requests`` frames synchronously
    (submit, wait for the result, submit the next — the hardest pattern to
    batch, since each client has at most one request in flight).  Coalescing
    across clients is what the scheduler's ``max_wait_us`` window buys.

    ``--socket`` / ``--connect`` switch to the TCP front-end with a mixed
    MD + interactive + cache workload (see :func:`_serve_bench_socket`).
    """
    import time

    if args.socket or args.connect:
        return _serve_bench_socket(args)

    from repro.analysis.structures import fcc_lattice, water_box
    from repro.serving import (
        InferenceServer,
        perturbed_frames,
        run_closed_loop_clients,
        served_matches_direct,
    )

    workers = args.workers  # 'per-model' or an int (server coerces/validates)
    if args.tiny:
        from repro.dp.model import DeepPot, DPConfig

        name = "water-tiny"
        model = DeepPot(DPConfig.tiny(sel=(8, 16), rcut=3.0))
        base = water_box((2, 2, 2), seed=0)
        server = InferenceServer(
            {name: model},
            max_batch=args.max_batch,
            max_wait_us=args.max_wait_us,
            max_queue=args.max_queue,
            workers=workers,
        )
    else:
        name = args.model
        server = InferenceServer.from_zoo(
            [name],
            max_batch=args.max_batch,
            max_wait_us=args.max_wait_us,
            max_queue=args.max_queue,
            workers=workers,
        )
        model = server.model(name)
        base = (
            fcc_lattice((3, 3, 3))
            if name.startswith("copper")
            else water_box((3, 3, 3), seed=0)
        )

    n_clients, n_requests = args.clients, args.requests
    print(f"serving model {name!r}: {base.n_atoms}-atom frames, "
          f"{n_clients} closed-loop clients x {n_requests} requests, "
          f"max_batch={args.max_batch}, max_wait={args.max_wait_us:.0f} us, "
          f"workers={server.workers} ({', '.join(server.worker_ids())})")

    # Per-client frame sets (perturbed copies; decorrelated workloads).
    frames = {
        tid: perturbed_frames(base, n_requests, seed0=1000 * (tid + 1))
        for tid in range(n_clients)
    }

    t0 = time.perf_counter()
    # --tiny (the CI smoke path, 10-minute job timeout) keeps the join
    # deadline tight so a wedged server fails WITH per-client progress
    # instead of a hard job kill; real workloads scale with the helper's
    # default (timeout * frames-per-client + slack).
    served = run_closed_loop_clients(
        server, name, frames, timeout=300,
        join_timeout=270.0 if args.tiny else None,
    )
    wall = time.perf_counter() - t0
    server.stop()

    total = n_clients * n_requests
    print(f"\n{total} requests in {wall:.2f} s "
          f"({total / wall:.1f} frames/s, "
          f"{wall / total * 1e3:.2f} ms/request mean round trip)")
    print(server.stats.report())

    # Correctness spot check: one request per client, bitwise vs direct.
    ok = all(
        served_matches_direct(model, *served[tid][-1])
        for tid in range(n_clients)
    )
    print(f"bitwise vs direct evaluate ({n_clients} spot checks): "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _md_tiny_sim(thermostat: str):
    """The deterministic tiny MD setup ``repro md`` and ``repro resume``
    both construct — identical arguments on both sides are the restore
    contract (the code is the checkpoint's schema)."""
    from repro.analysis.structures import water_box
    from repro.dp.pair import DeepPotPair
    from repro.md import boltzmann_velocities
    from repro.md.integrators import Langevin, NoseHoover, VelocityVerlet
    from repro.md.neighbor import fitted_neighbor_list
    from repro.md.simulation import Simulation

    model = _bench_tiny_model()
    base = water_box((2, 2, 2), seed=0)
    boltzmann_velocities(base, 300.0, seed=1)
    integrator = {
        "nve": VelocityVerlet,
        "langevin": lambda: Langevin(temperature=300.0, seed=7),
        "nosehoover": lambda: NoseHoover(temperature=300.0),
    }[thermostat]()
    return Simulation(
        base,
        DeepPotPair(model),
        dt=5e-4,
        integrator=integrator,
        neighbor=fitted_neighbor_list(base, model.config.rcut),
        thermo_every=10,
    )


def _write_md_npz(path: str, sim) -> None:
    import numpy as np

    np.savez(
        path,
        positions=sim.system.positions,
        velocities=sim.system.velocities,
        forces=sim.last_result().forces,
        thermo=np.array(
            [r.as_tuple() for r in sim.thermo.rows], dtype=np.float64
        ).reshape(-1, 7),
        step_count=np.int64(sim.step_count),
    )


def cmd_md(args) -> int:
    """Deterministic tiny MD run with exact-restart checkpointing.

    ``--checkpoint-dir`` saves every ``--checkpoint-every`` steps and arms
    SIGTERM -> checkpoint-then-exit(3); ``--sigterm-at N`` raises SIGTERM
    *on itself* at step N (the deterministic stand-in for an external
    ``kill``, and exactly what the CI chaos job's shell flow exercises
    from outside).  ``repro resume`` finishes the trajectory bitwise.
    """
    import signal

    from repro.md.checkpoint import CheckpointInterrupt, CheckpointWriter

    if args.sigterm_at and not args.checkpoint_dir:
        print("--sigterm-at needs --checkpoint-dir (nothing to resume from)")
        return 2
    sim = _md_tiny_sim(args.thermostat)
    writer = None
    if args.checkpoint_dir:
        writer = CheckpointWriter(
            sim, args.checkpoint_dir, every=args.checkpoint_every
        ).install_sigterm()

    def cb(s):
        if args.sigterm_at and s.step_count == args.sigterm_at:
            signal.raise_signal(signal.SIGTERM)
        if writer is not None:
            writer(s)

    try:
        sim.run(args.steps, callback=cb)
    except CheckpointInterrupt as exc:
        print(f"repro md: interrupted — {exc}", flush=True)
        return 3
    finally:
        if writer is not None:
            writer.uninstall_sigterm()
    if args.out:
        _write_md_npz(args.out, sim)
    print(
        f"repro md: {sim.step_count} steps, "
        f"{sim.force_evaluations} force evaluations, "
        f"{len(sim.thermo.rows)} thermo rows"
        + (f", saved {args.out}" if args.out else "")
        + (f", {writer.saves} checkpoint(s)" if writer is not None else ""),
        flush=True,
    )
    return 0


def cmd_resume(args) -> int:
    """Restore an ``md`` checkpoint and run to ``--steps`` total steps."""
    from repro.md.checkpoint import restore_checkpoint

    sim = _md_tiny_sim(args.thermostat)
    restore_checkpoint(sim, args.checkpoint)
    remaining = args.steps - sim.step_count
    if remaining < 0:
        print(
            f"checkpoint is already at step {sim.step_count} > "
            f"--steps {args.steps}"
        )
        return 2
    print(
        f"repro resume: restored step {sim.step_count} from "
        f"{args.checkpoint}, running {remaining} more",
        flush=True,
    )
    sim.run(remaining)
    if args.out:
        _write_md_npz(args.out, sim)
    print(
        f"repro resume: {sim.step_count} steps total, "
        f"{sim.force_evaluations} force evaluations, "
        f"{len(sim.thermo.rows)} thermo rows"
        + (f", saved {args.out}" if args.out else ""),
        flush=True,
    )
    return 0


def cmd_chaos_smoke(args) -> int:
    """Seeded fault-injection end-to-end: the CI chaos job.

    Scenario A (serving): a daemon hosting the tiny model runs under a
    :class:`~repro.serving.faults.FaultPlan` that crashes the worker on
    its first batch, severs the client's connection after 3 frames, and
    duplicates a result frame — while a retrying
    :class:`~repro.dp.backend.ServingForceBackend` evaluates 8 frames.
    Asserts: every result bitwise equal to direct evaluation, daemon
    stayed up, conservation holds, crash/respawn/reconnect counters fired.

    Scenario B (checkpointing): a Langevin MD run is SIGTERM-killed
    mid-run (real signal, delivered to this process), then restored and
    finished; positions/velocities/forces/thermo must be bitwise equal to
    the uninterrupted run.
    """
    import signal
    import tempfile

    import numpy as np

    from repro.analysis.structures import water_box
    from repro.dp.backend import ForceFrame, ServingForceBackend
    from repro.md.checkpoint import (
        CheckpointInterrupt,
        CheckpointWriter,
        restore_checkpoint,
    )
    from repro.md.neighbor import neighbor_pairs
    from repro.serving import (
        CrashWorker,
        FaultPlan,
        InferenceServer,
        ServingDaemon,
        SeverConnection,
        SocketClient,
        TamperFrame,
    )

    checks: dict[str, bool] = {}

    print("chaos-smoke A: serving under a seeded FaultPlan...")
    name = "water-tiny"
    model = _bench_tiny_model()
    base = water_box((2, 2, 2), seed=0)
    from repro.serving import perturbed_frames

    frames = perturbed_frames(base, 8, seed0=4242)
    direct = [
        model.evaluate(f, *neighbor_pairs(f, model.config.rcut))
        for f in frames
    ]
    plan = FaultPlan(
        faults=(
            CrashWorker(worker=name, at_batch=1),
            SeverConnection(client="chaos", after_frames=3),
            TamperFrame(client="chaos", at_frame=5, action="duplicate"),
        ),
        seed=args.seed,
    )
    server = InferenceServer(
        {name: model}, max_batch=4, max_wait_us=2000, faults=plan
    )
    daemon = ServingDaemon(server, faults=plan).start()
    try:
        with SocketClient(
            daemon.address, name, client="chaos", retries=4
        ) as client:
            backend = ServingForceBackend(client, timeout=120, retries=4)
            results = backend.evaluate(
                [
                    ForceFrame(f, *neighbor_pairs(f, model.config.rcut))
                    for f in frames
                ]
            )
            checks["all frames served under faults"] = len(results) == 8
            checks["served bitwise == direct (through crash + sever)"] = all(
                r.energy == d.energy
                and np.array_equal(r.forces, d.forces)
                and np.array_equal(r.virial, d.virial)
                for r, d in zip(results, direct)
            )
            checks["client reconnected after sever"] = client.reconnects >= 1
            checks["client resubmitted in-flight frames"] = (
                client.resubmits >= 1
            )
    finally:
        daemon.stop(drain=True)
    s = server.stats.snapshot()
    checks["worker crashed and was respawned"] = (
        s["worker_crashes"] >= 1 and s["worker_respawns"] >= 1
    )
    checks["conservation through the crash"] = s["requests_submitted"] == (
        s["requests_completed"]
        + s["requests_failed"]
        + s["requests_cancelled"]
    )
    checks["each planned fault fired"] = (
        plan.fired("CrashWorker") == 1
        and plan.fired("SeverConnection") == 1
        and plan.fired("TamperFrame") == 1
    )
    print(server.stats.report())

    print("\nchaos-smoke B: SIGTERM mid-MD, restore, bitwise finish...")
    total, kill_at = 40, 17
    ref = _md_tiny_sim("langevin")
    ref.run(total)
    with tempfile.TemporaryDirectory() as tmp:
        victim = _md_tiny_sim("langevin")
        writer = CheckpointWriter(victim, tmp, every=10).install_sigterm()

        def cb(s):
            if s.step_count == kill_at:
                signal.raise_signal(signal.SIGTERM)
            writer(s)

        interrupted = False
        try:
            victim.run(total, callback=cb)
        except CheckpointInterrupt:
            interrupted = True
        finally:
            writer.uninstall_sigterm()
        checks["SIGTERM interrupted the run mid-way"] = (
            interrupted and victim.step_count == kill_at
        )
        resumed = _md_tiny_sim("langevin")
        restore_checkpoint(resumed, writer.path)
        resumed.run(total - resumed.step_count)
    checks["resumed positions bitwise == uninterrupted"] = np.array_equal(
        resumed.system.positions, ref.system.positions
    )
    checks["resumed velocities bitwise == uninterrupted"] = np.array_equal(
        resumed.system.velocities, ref.system.velocities
    )
    checks["resumed forces bitwise == uninterrupted"] = np.array_equal(
        resumed.last_result().forces, ref.last_result().forces
    )
    checks["resumed thermo rows bitwise == uninterrupted"] = [
        r.as_tuple() for r in resumed.thermo.rows
    ] == [r.as_tuple() for r in ref.thermo.rows]
    checks["resumed evaluation count matches"] = (
        resumed.force_evaluations == ref.force_evaluations
    )

    print()
    for what, ok in checks.items():
        print(f"  {'PASS' if ok else 'FAIL'}  {what}")
    print(f"chaos-smoke: {'PASSED' if all(checks.values()) else 'FAILED'}")
    return 0 if all(checks.values()) else 1


def cmd_lint(args) -> int:
    from pathlib import Path

    import repro
    from repro.analysis.lint import RULES, format_json, format_text, lint_paths

    if args.list_rules:
        for rule, desc in sorted(RULES.items()):
            print(f"{rule}  {desc}")
        return 0
    paths = args.paths or [str(Path(repro.__file__).parent)]
    findings = lint_paths(paths)
    print(format_json(findings) if args.json else format_text(findings))
    if findings and args.strict:
        return 1
    return 0


def _plan_report_entries(results) -> list:
    """JSON-ready per-plan entries (verification verdict + metrics)."""
    out = []
    for e in results:
        entry = {
            "plan": e["plan"],
            "records": e["records"],
            "ok": e["report"].ok,
            "findings": [str(f) for f in e["report"].findings],
        }
        if "metrics" in e:
            entry.update(e["metrics"])
        out.append(entry)
    return out


def cmd_check_plans(args) -> int:
    import json as _json

    from repro.analysis.plancheck import check_all_plans

    results = check_all_plans(report=bool(args.report))
    bad = [e for e in results if not e["report"].ok]
    if args.report:
        with open(args.report, "w") as fh:
            _json.dump(_plan_report_entries(results), fh, indent=2)
            fh.write("\n")
        print(f"plan report written to {args.report}")
    if args.json:
        print(_json.dumps(
            [
                {
                    "plan": e["plan"],
                    "records": e["records"],
                    "ok": e["report"].ok,
                    "findings": [str(f) for f in e["report"].findings],
                    "notes": list(e["report"].notes),
                }
                for e in results
            ],
            indent=2,
        ))
    else:
        for e in results:
            rep = e["report"]
            status = "OK" if rep.ok else f"FAIL ({len(rep.findings)} finding(s))"
            print(f"{e['plan']:<26} {e['records']:>4} records  {status}")
            for f in rep.findings:
                print(f"    {f}")
            for n in rep.notes:
                print(f"    note: {n}")
        verdict = "clean" if not bad else f"{len(bad)} plan(s) with findings"
        print(f"check-plans: {len(results)} plans verified — {verdict}")
    return 1 if bad else 0


def cmd_plan_report(args) -> int:
    import json as _json

    from repro.analysis.plancheck import check_all_plans

    results = check_all_plans(report=True)
    entries = _plan_report_entries(results)
    payload = _json.dumps(entries, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
        print(f"plan report written to {args.out}")
    else:
        print(payload)
    if not args.out:
        return 1 if any(not e["ok"] for e in entries) else 0
    for e in entries:
        saved = e["arena_bytes_saved"]
        pct = 100.0 * saved / e["arena_nbytes_fifo"] if e["arena_nbytes_fifo"] else 0.0
        print(
            f"  {e['plan']:<26} {e['records']:>4} records  "
            f"arena {e['arena_nbytes_colored']:>10} B "
            f"(fifo {e['arena_nbytes_fifo']:>10} B, -{pct:.1f}%)"
        )
    return 1 if any(not e["ok"] for e in entries) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("info", help="package inventory and zoo status")
    sub.add_parser("scaling", help="regenerate the Summit scaling tables")
    sub.add_parser("validate", help="quick end-to-end self check")
    daemon = sub.add_parser(
        "serve",
        help="run the inference service as a socket daemon "
             "(SIGTERM = graceful drain)",
    )
    daemon.add_argument("--models", default="water",
                        help="comma-separated zoo models: "
                             "water/copper[-double|-single]")
    daemon.add_argument("--tiny", action="store_true",
                        help="host one untrained deterministic tiny model "
                             "(fast; what serve-bench --connect expects)")
    daemon.add_argument("--host", default="127.0.0.1")
    daemon.add_argument("--port", type=int, default=0,
                        help="TCP port (0 = ephemeral, printed at startup)")
    daemon.add_argument("--max-batch", type=int, default=8)
    daemon.add_argument("--max-wait-us", type=float, default=1000.0)
    daemon.add_argument("--max-queue", type=int, default=64)
    daemon.add_argument("--workers", default="per-model")
    daemon.add_argument("--max-per-client", type=int, default=0,
                        help="per-client admission quota (0 = unlimited)")
    daemon.add_argument("--cache", type=int, default=0,
                        help="result-cache entries (0 = off)")
    daemon.add_argument("--checkpoint-dir", default=None,
                        help="persist lifetime counters across restarts "
                             "(serving-stats.json in this directory)")
    daemon.add_argument("--idle-timeout", type=float, default=0.0,
                        help="sweep client connections idle longer than "
                             "this many seconds (0 = never)")
    serve = sub.add_parser(
        "serve-bench",
        help="closed-loop load generator for the inference service",
    )
    serve.add_argument("--model", default="water",
                       help="zoo model: water/copper[-double|-single]")
    serve.add_argument("--tiny", action="store_true",
                       help="use an untrained tiny model (fast; no zoo cache)")
    serve.add_argument("--clients", type=int, default=4)
    serve.add_argument("--requests", type=int, default=8,
                       help="requests per client")
    serve.add_argument("--max-batch", type=int, default=8)
    serve.add_argument("--max-wait-us", type=float, default=1000.0)
    serve.add_argument("--max-queue", type=int, default=64)
    serve.add_argument("--workers", default="per-model",
                       help="'per-model' (one worker per hosted model) or "
                            "an integer shared-pool size")
    serve.add_argument("--socket", action="store_true",
                       help="drive the bench over a real TCP daemon "
                            "(in-process unless --connect)")
    serve.add_argument("--connect", metavar="HOST:PORT", default=None,
                       help="attach to a running `repro serve` daemon "
                            "instead of spinning one locally")
    serve.add_argument("--cache", type=int, default=16,
                       help="result-cache entries for the local --socket "
                            "daemon (ignored with --connect)")
    serve.add_argument("--md-steps", type=int, default=3,
                       help="steps for the socket bench's MD client")
    serve.add_argument("--connect-retry", type=float, default=10.0,
                       help="seconds to retry the initial connect while the "
                            "daemon is still binding (0 = one attempt)")
    md = sub.add_parser(
        "md",
        help="deterministic tiny MD run with exact-restart checkpointing",
    )
    md.add_argument("--steps", type=int, default=40)
    md.add_argument("--out", default=None,
                    help="write final positions/velocities/forces/thermo "
                         "as .npz")
    md.add_argument("--checkpoint-dir", default=None,
                    help="save checkpoints here and arm SIGTERM -> "
                         "checkpoint-then-exit(3)")
    md.add_argument("--checkpoint-every", type=int, default=0,
                    help="also checkpoint every N steps (0 = only on "
                         "SIGTERM)")
    md.add_argument("--sigterm-at", type=int, default=0,
                    help="raise SIGTERM on ourselves at step N "
                         "(deterministic kill, for the chaos CI job)")
    md.add_argument("--thermostat", default="langevin",
                    choices=("nve", "langevin", "nosehoover"))
    res = sub.add_parser(
        "resume",
        help="restore an `md` checkpoint and finish the run bitwise",
    )
    res.add_argument("--checkpoint", required=True,
                     help="checkpoint file written by `repro md`")
    res.add_argument("--steps", type=int, default=40,
                     help="TOTAL steps (matching the original --steps)")
    res.add_argument("--out", default=None,
                     help="write final state as .npz")
    res.add_argument("--thermostat", default="langevin",
                     choices=("nve", "langevin", "nosehoover"),
                     help="must match the original run")
    chaos = sub.add_parser(
        "chaos-smoke",
        help="seeded fault-injection end-to-end: crash/sever/tamper "
             "serving + SIGTERM/resume bitwise MD",
    )
    chaos.add_argument("--seed", type=int, default=0)
    lint = sub.add_parser(
        "lint", help="concurrency/invariant linter (rules L101-L111)"
    )
    lint.add_argument("paths", nargs="*",
                      help="files/directories to lint (default: the "
                           "installed repro package)")
    lint.add_argument("--json", action="store_true", help="JSON report")
    lint.add_argument("--strict", action="store_true",
                      help="exit nonzero when any finding remains")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule table and exit")
    checkp = sub.add_parser(
        "check-plans",
        help="statically verify every zoo model's compiled plans "
             "(rules P101-P108)",
    )
    checkp.add_argument("--json", action="store_true", help="JSON report")
    checkp.add_argument(
        "--report", metavar="FILE", default=None,
        help="also write per-plan compiler metrics (records, "
             "colored-vs-FIFO arena bytes) as JSON to FILE",
    )
    planrep = sub.add_parser(
        "plan-report",
        help="per-plan compiler metrics across the zoo matrix "
             "(records, arena bytes before/after coloring)",
    )
    planrep.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the JSON report to FILE (and print a summary table) "
             "instead of dumping JSON to stdout",
    )
    args = parser.parse_args(argv)
    return {
        "info": cmd_info,
        "scaling": cmd_scaling,
        "validate": cmd_validate,
        "serve": cmd_serve,
        "serve-bench": cmd_serve_bench,
        "md": cmd_md,
        "resume": cmd_resume,
        "chaos-smoke": cmd_chaos_smoke,
        "lint": cmd_lint,
        "check-plans": cmd_check_plans,
        "plan-report": cmd_plan_report,
    }[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
