"""The MD workloads: ``md-cu864`` and ``dd-water-r2``.

Both advance a production driver one step at a time and read the step's
wall time from the driver's own ``loop_seconds``.  The untraced run takes
the number of steps that fills ``--seconds`` at a nominal step time, so
every run of a seed does the same work, and reports the end-to-end metrics
(``p50_ms`` is the median step latency), each time scaled by the factor of
the host-speed reference (``perfbench.common.HostSpeed``) timed after every
step.  The traced run replays the
same seeded trajectory twice for a fixed number of steps, once untraced
and once traced, so the counters repeat exactly and the tracing overhead
is a paired comparison.
"""

from __future__ import annotations

import gc
import os
import struct
import time
import traceback

import numpy as np
from repro import zoo
from repro.analysis.structures import fcc_lattice, water_box
from repro.dp.batch import BatchedEvaluator
from repro.dp.pair import DeepPotPair
from repro.md import Simulation, boltzmann_velocities
from repro.md.neighbor import fitted_neighbor_list
from repro.parallel.driver import DistributedEnsembleSimulation

from perfbench import tracing as tr
from perfbench.common import HostSpeed, Outcome, per, percentile, vm_hwm_mb

# Per-layer metrics of the serving stack, which MD does not run.
SERVING_ONLY = (
    "serve.queue_wait_ms", "serve.occupancy_a", "serve.occupancy_b",
    "serve.batch_ms", "serve.wire_ms", "serve.max_late_ms",
)


class CopperSerial:
    """``md-cu864``: serial ``Simulation`` + ``DeepPotPair`` on zoo copper,
    fcc 6x6x6 (864 atoms), NVE velocity-Verlet, dt = 1 fs, 330 K, fitted
    neighbor list (2 Å skin, rebuild every 50 steps)."""

    step_s = 0.125   # nominal, on 2 cores: sizes the timed run
    traced_steps = 40
    # Set-ups per run (the first is the one before the timed steps); the
    # median is reported.  A set-up here takes 0.2-0.3 s, so many are cheap.
    setup_repeats = 11
    ref_passes = 1   # host-speed reference passes after each step (~5%)

    def __init__(self, seed: int, tiny: bool):
        self.model = zoo.get_copper_model()
        system = fcc_lattice((3, 3, 3) if tiny else (6, 6, 6))
        boltzmann_velocities(system, 330.0, seed=seed)
        pair = DeepPotPair(self.model)
        self.sim = Simulation(
            system, pair, dt=0.001,
            neighbor=fitted_neighbor_list(
                system, pair.cutoff, skin=2.0, rebuild_every=50
            ),
        )
        self.sim.initialize()
        self.atoms = system.n_atoms

    def step(self) -> tuple[float, bool]:
        sim = self.sim
        before = sim.loop_seconds
        sim.run(1)
        res = sim.last_result()
        ok = np.isfinite(res.energy) and np.isfinite(res.forces).all()
        return sim.loop_seconds - before, bool(ok)

    def layout(self):
        """Changes when atoms migrate between sub-domains; never here."""
        return None

    def counters(self) -> dict:
        return {
            "neighbor.builds": self.sim.neighbor.n_builds,
            "dd.p2p_bytes": 0,
        }

    def gate(self) -> tuple[bool, str]:
        """Last state vs the oracle engine (``Session.run``, no plan)."""
        sim = self.sim
        oracle = BatchedEvaluator(self.model, use_plan=False).evaluate_batch(
            [sim.system], [(sim.neighbor.pair_i, sim.neighbor.pair_j)]
        )[0]
        last = sim.last_result()
        ok = (
            last.energy == oracle.energy
            and np.array_equal(last.forces, oracle.forces)
            and np.array_equal(last.virial, oracle.virial)
        )
        return ok, "energy/forces/virial bitwise == BatchedEvaluator(use_plan=False)"


class WaterDistributed:
    """``dd-water-r2``: ``DistributedEnsembleSimulation`` on zoo water,
    ``water_box((6,6,6))`` (648 atoms), 2 replicas, grid (2,1,1), dt = 0.5
    fs: four ghost-carrying sub-domain frames per step through one
    ``ForceBackend``.  Atoms migrate every 10 steps: with the default 50,
    whether a displacement-triggered migration (and the plan arena for its
    new frame shapes) falls inside a run would depend on the seed."""

    step_s = 0.75
    traced_steps = 10  # ends with the first migration
    setup_repeats = 7
    ref_passes = 6

    def __init__(self, seed: int, tiny: bool):
        self.model = zoo.get_water_model()
        base = water_box((4, 4, 4) if tiny else (6, 6, 6), seed=seed)
        self.dd = DistributedEnsembleSimulation.from_system(
            base, self.model, 2, temperature=330.0, seed=seed,
            grid=(2, 1, 1), dt=0.0005, rebuild_every=10,
        )
        self.atoms = self.dd.total_atoms()

    def step(self) -> tuple[float, bool]:
        dd = self.dd
        before = dd.loop_seconds
        dd.run(1)
        ok = all(
            np.isfinite(rep._rank_energy).all()
            and np.isfinite(rep.forces_now()).all()
            for rep in dd.replicas
        )
        return dd.loop_seconds - before, bool(ok)

    def layout(self):
        """The step of each replica's last migration.  A migration gives
        the sub-domain frames new shapes and so a new plan arena (~54 MB);
        whether the counts change at a migration depends on the seed."""
        return tuple(rep._last_rebuild for rep in self.dd.replicas)

    def counters(self) -> dict:
        reps = self.dd.replicas
        return {
            "neighbor.builds": 0,
            "dd.p2p_bytes": sum(r.comm.stats.p2p_bytes for r in reps),
        }

    def gate(self) -> tuple[bool, str]:
        """Recompute the last state's forces through the retained per-rank
        oracle path and require bitwise equality per replica."""
        snaps = []
        for rep in self.dd.replicas:
            snaps.append(
                (rep.forces_now(), rep._rank_energy.copy(), rep._rank_virial.copy())
            )
            rep.force_path = "per-rank"
            rep._compute_forces()
        ok = all(
            np.array_equal(f, rep.forces_now())
            and np.array_equal(e, rep._rank_energy)
            and np.array_equal(w, rep._rank_virial)
            for (f, e, w), rep in zip(snaps, self.dd.replicas)
        )
        return ok, "energy/forces/virial bitwise == force_path='per-rank'"


CASES = {"md-cu864": CopperSerial, "dd-water-r2": WaterDistributed}


def run(workload: str, seed: int, seconds: float, traced: bool,
        tiny: bool, spans_path) -> Outcome:
    cls = CASES[workload]
    if traced:
        return _run_traced(cls, seed, tiny, spans_path)
    return _run_timed(cls, seed, seconds, tiny)


def _run_timed(cls, seed: int, seconds: float, tiny: bool) -> Outcome:
    server = _SetupServer(cls, seed, tiny)
    try:
        return _timed_steps(cls, seed, seconds, tiny, server)
    finally:
        server.close()


def _timed_steps(cls, seed: int, seconds: float, tiny: bool,
                 server: _SetupServer) -> Outcome:
    host = HostSpeed()
    t0 = time.perf_counter()
    case = cls(seed, tiny)
    setups = [time.perf_counter() - t0]
    # A fixed step count per run length: every run of a seed replays the
    # same trajectory, with its neighbor rebuilds on the same steps.
    n = max(1, round(seconds / cls.step_s))
    # The other set-ups are spread over the run, so that their median
    # samples this host's speed over the same span as the steps do.
    due = [k * n // cls.setup_repeats for k in range(1, cls.setup_repeats)]
    step_s: list[float] = []
    failed = 0
    # Peak memory up to the first migration: the number of extra plan
    # arenas the migrations add depends on the seed (1 to 4 arenas on
    # dd-water-r2, 460-680 MB), which would make the peak a draw over
    # seeds.  The peak of the whole run is in the details.
    rss = None
    for i in range(n):
        while due and due[0] == i:
            due.pop(0)
            setups.append(server.time_setup())
        layout, hwm = case.layout(), vm_hwm_mb()
        dt, ok = case.step()
        step_s.append(dt)
        failed += not ok
        host.sample(cls.ref_passes)
        if rss is None and case.layout() != layout:
            rss = hwm
    rss_run = vm_hwm_mb()
    rss = rss_run if rss is None else rss
    ok, gate = case.gate()
    atoms = case.atoms
    raw = {
        "tts_us": 1e6 * sum(step_s) / n / atoms,
        "setup_s": float(np.median(setups)),
        "p50_ms": 1e3 * percentile(step_s, 50),
    }
    speed = host.factor()
    metrics = {k: v * speed for k, v in raw.items()}
    metrics["peak_rss_mb"] = rss
    return Outcome(
        correct=ok and failed == 0, attempted=n, failed=failed,
        metrics=metrics,
        details={"atoms": atoms, "steps": n, "host_factor": speed,
                 "raw": raw, "p90_ms": 1e3 * percentile(step_s, 90),
                 "peak_rss_run_mb": rss_run,
                 "gate": gate, "gate_ok": ok, "setup_s_all": setups},
    )


class _SetupServer:
    """A forked process that times set-ups on request, so that they can be
    spread over the run.  It forks before the run's own set-up, holding
    only the imported modules, and its memory never counts toward this
    process's peak."""

    def __init__(self, cls, seed: int, tiny: bool):
        req_r, self._req = os.pipe()
        self._resp, resp_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:  # server: one set-up per request byte, until EOF
            os.close(self._req)
            os.close(self._resp)
            code = 0
            try:
                while os.read(req_r, 1):
                    gc.collect()
                    t0 = time.perf_counter()
                    cls(seed, tiny)
                    os.write(resp_w, struct.pack("d", time.perf_counter() - t0))
            except BaseException:
                traceback.print_exc()
                code = 1
            os._exit(code)
        os.close(req_r)
        os.close(resp_w)

    def time_setup(self) -> float:
        os.write(self._req, b"s")
        data = os.read(self._resp, 8)
        if len(data) != 8:
            raise RuntimeError(f"set-up server {self.pid} failed")
        return struct.unpack("d", data)[0]

    def close(self) -> None:
        os.close(self._req)
        os.close(self._resp)
        os.waitpid(self.pid, 0)


def _run_traced(cls, seed: int, tiny: bool, spans_path) -> Outcome:
    n = 4 if tiny else cls.traced_steps
    # Untraced reference: the same seeded trajectory, same steps.
    case = cls(seed, tiny)
    plain = [case.step()[0] for _ in range(n)]
    del case
    gc.collect()

    tracer = tr.install_layers(tr.Tracer())
    try:
        case = cls(seed, tiny)
        c0 = case.counters()
        case.model.session.profile = True
        tracer.enabled = True
        t0 = time.perf_counter()
        results = [case.step() for _ in range(n)]
        t1 = time.perf_counter()
        tracer.enabled = False
        case.model.session.profile = False
        c1 = case.counters()
        ok, gate = case.gate()
    finally:
        tracer.restore()
    failed = sum(not r[1] for r in results)
    traced = [r[0] for r in results]
    records = tracer.records()
    tracer.dump(spans_path)
    S = tr.summarize(records, t0, t1)
    step = S.get("step", {"total": 0.0, "self": 0.0})
    m = layer_metrics(S, n, case.atoms)
    m.update({
        # Serial list rebuilds, or per-replica migrations (re-assignments).
        "neighbor.builds": per(
            c1["neighbor.builds"] - c0["neighbor.builds"]
            + tr.calls(S, "dd.migrate.assign"), n,
        ),
        "dd.p2p_bytes": per(c1["dd.p2p_bytes"] - c0["dd.p2p_bytes"], n),
        "backend.evals": per(tr.counted(S, "backend", "backend.evals"), n),
        "trace.overhead_frac": sum(traced) / sum(plain) - 1.0,
        "trace.coverage": 1.0 - step["self"] / step["total"] if step["total"] else 0.0,
    })
    m.update(dict.fromkeys(SERVING_ONLY, 0.0))
    return Outcome(
        correct=ok and failed == 0, attempted=n, failed=failed, metrics=m,
        details={"atoms": case.atoms, "steps": n, "gate": gate,
                 "gate_ok": ok, "spans": len(records),
                 "nesting_errors": len(tr.nesting_errors(records))},
    )


def layer_metrics(S: dict, n: int, atoms: int) -> dict:
    """Per-layer times per step (or per served frame) and the staging
    paths' shares of batches, from a span summary."""
    batches = tr.calls(S, "stage")
    m = {
        key: per(tr.counted(S, "stage", key), batches)
        for key in ("batch.gathers", "batch.identity", "batch.ghost_stacked")
    }
    m.update({
        "neighbor.ms": tr.self_ms(S, "neighbor", n),
        "neighbor.calls": per(tr.calls(S, "neighbor"), n),
        "nbcheck.ms": tr.self_ms(S, "nbcheck", n),
        "backend.ms": tr.self_ms(S, "backend", n),
        "format.ms": tr.self_ms(S, "format", n),
        "env.ms": tr.self_ms(S, "env", n),
        "stage.ms": tr.self_ms(S, "stage", n),
        "integrate.ms": tr.self_ms(S, "integrate", n),
        "dd.comm_ms": tr.self_ms(S, "dd.comm", n),
        "dd.migrate_ms": tr.self_ms(S, "dd.migrate", n),
    })
    m.update(tr.plan_metrics(S, n, atoms))
    return m
