"""The plan compiler: liveness scheduling and interference coloring.

Covers the pipeline in :mod:`repro.tfmini.plan`:

- the liveness list scheduler is deterministic and dependency-correct;
- the interference-coloring allocator beats the FIFO shape-keyed baseline
  on every zoo plan (strictly — the counter-asserted acceptance bar) while
  verifying clean under P101–P108;
- the batched engine and the trainer stay bitwise identical to the
  ``Session.run`` oracle.
"""

import numpy as np
import pytest

from repro.analysis.plancheck import check_all_plans, plan_metrics
from repro.analysis.structures import fcc_lattice, water_box
from repro.dp.batch import BatchedEvaluator
from repro.dp.model import DeepPot
from repro.md.neighbor import neighbor_pairs
from repro.tfmini.plan import compile_plan
from repro.zoo import copper_config, water_config


@pytest.fixture(scope="module")
def water():
    model = DeepPot(water_config("double"))
    system = water_box((3, 3, 3), seed=0)
    pairs = neighbor_pairs(system, model.config.rcut)
    return model, system, pairs


@pytest.fixture(scope="module")
def water_oracle(water):
    model, system, pairs = water
    res = BatchedEvaluator(model, use_plan=False).evaluate_batch(
        [system], [pairs])[0]
    return res


class TestScheduler:
    def test_deterministic(self, water):
        model, _system, _pairs = water
        feeds = (list(model.ph_env)
                 + [model.ph_em_deriv, model.ph_rij, model.ph_nlist,
                    model.ph_atom_idx, model.ph_natoms])
        fetches = [model._f_forces, model._f_net_deriv] + list(model._f_e_atoms)
        p1 = compile_plan(fetches, feeds)
        p2 = compile_plan(fetches, feeds)
        assert [id(r.node) for r in p1._records] == \
            [id(r.node) for r in p2._records]

    def test_dependencies_respected(self, water):
        model, _system, _pairs = water
        feeds = (list(model.ph_env)
                 + [model.ph_em_deriv, model.ph_rij, model.ph_nlist,
                    model.ph_atom_idx, model.ph_natoms])
        plan = compile_plan([model._f_forces], feeds)
        producer_pos = {r.out_slot: i for i, r in enumerate(plan._records)}
        for i, rec in enumerate(plan._records):
            for s in rec.input_slots:
                if s in producer_pos:
                    assert producer_pos[s] < i, (i, rec.op)

class TestBitwiseOracle:
    def test_engine_vs_session_oracle(self, water, water_oracle):
        model, system, pairs = water
        engine = BatchedEvaluator(model)
        for _ in range(2):  # warm + steady paths both checked
            out = engine.evaluate_batch([system], [pairs])[0]
            assert np.array_equal(
                np.asarray(water_oracle.energy), np.asarray(out.energy))
            assert np.array_equal(water_oracle.forces, out.forces)
            assert np.array_equal(
                np.asarray(water_oracle.virial), np.asarray(out.virial))

    def test_trainer_bitwise_vs_session_oracle(self):
        from repro.dp.data import label_frames
        from repro.dp.train import TrainConfig, Trainer
        from repro.oracles import FlexibleWater

        def run(use_plan):
            model = DeepPot(water_config("double"))
            base = water_box((3, 3, 3), seed=0)
            dataset = label_frames([base], FlexibleWater(cutoff=4.0))
            dataset.apply_stats(model)
            trainer = Trainer(
                model, dataset, TrainConfig(n_steps=2, log_every=10),
                use_plan=use_plan,
            )
            trainer.train()
            return trainer

        ref = run(False)
        got = run(True)
        assert [r.loss for r in ref.history] == [r.loss for r in got.history]
        for va, vb in zip(ref.model.trainable_variables(),
                          got.model.trainable_variables()):
            assert np.array_equal(va.value, vb.value)


class TestColoringAllocator:
    def test_zoo_colored_strictly_below_fifo(self):
        """The acceptance bar: coloring beats the FIFO recycler on every
        zoo plan (water/copper x double/mixed x evaluate/train/serving),
        measured on warmed arenas, with every plan verifying clean."""
        results = check_all_plans(report=True)
        assert len(results) == 10
        for entry in results:
            assert entry["report"].ok, (
                entry["plan"] + "\n" + entry["report"].summary())
            m = entry["metrics"]
            assert m["arena_nbytes_colored"] < m["arena_nbytes_fifo"], (
                entry["plan"], m)
            assert m["arena_bytes_saved"] == (
                m["arena_nbytes_fifo"] - m["arena_nbytes_colored"])

    def test_copper_864_arena_within_110_mb(self):
        """Memory pin for the serial copper MD workload: zoo copper on the
        864-atom fcc cell, one replica.  Sequential liveness ranges color
        this evaluate plan into 109.0 MB; widening any record's range
        (e.g. for concurrent execution) pushes it past the bound.  Arena
        bytes are a deterministic count of the colored slabs, not a
        timing."""
        model = DeepPot(copper_config("double"))
        system = fcc_lattice((6, 6, 6))
        assert system.n_atoms == 864
        pairs = neighbor_pairs(system, model.config.rcut)
        engine = BatchedEvaluator(model)
        engine.evaluate_batch([system], [pairs])
        assert engine.plan.stats.arena_builds == 1
        assert engine.plan.arena_nbytes() <= 110e6
        engine.plan.release_arenas()

    def test_best_fit_is_third_candidate_and_min_wins(self, water):
        """Size-aware coloring: every warmed arena records byte totals for
        all three candidate orders (first-fit by size, first-fit in tape
        order, best-fit by size) and realizes the minimum — so adding
        best-fit can never regress the footprint."""
        model, system, pairs = water
        engine = BatchedEvaluator(model)
        engine.evaluate_batch([system], [pairs])
        trainer_checked = 0
        for arena in engine.plan.arenas.values():
            cand = arena.color_candidates
            assert set(cand) == {
                "first_fit_size", "first_fit_tape", "best_fit_size"}
            assert min(cand.values()) <= cand["first_fit_size"]
            trainer_checked += 1
        assert trainer_checked >= 1
        assert engine.plan.arena_nbytes() == sum(
            min(a.color_candidates.values())
            for a in engine.plan.arenas.values())

    def test_metrics_shape(self, water):
        model, system, pairs = water
        engine = BatchedEvaluator(model)
        engine.evaluate_batch([system], [pairs])
        m = plan_metrics(engine.plan)
        assert m["records"] == engine.plan.n_records
        assert m["arenas"] == 1
        assert m["arena_nbytes_colored"] == engine.plan.arena_nbytes()


class TestServingStats:
    def test_executor_stats_report_coloring_counters(self, water):
        from repro.serving import InferenceServer

        model, system, pairs = water
        server = InferenceServer({"water": model}, autostart=False)
        try:
            engine = server._engines["water"]
            engine.evaluate_batch([system], [pairs])
            stats = server.executor_stats()["water"]
            assert stats["arena_nbytes"] < stats["arena_nbytes_fifo"]
        finally:
            server.stop()
