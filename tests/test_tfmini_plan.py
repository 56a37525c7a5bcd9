"""Compiled execution plans vs the ``Session.run`` oracle.

The contract under test (see :mod:`repro.tfmini.plan`):

* plan results are **bitwise identical** to ``Session.run`` — across the
  model zoo (water/copper x double/single network precision), fused and
  unfused graphs, R>1 batched evaluation, and a full Adam training step;
* the fixed costs are really gone — one ``topo_sort`` per compiled plan,
  zero arena allocations once a feed-shape signature is warm;
* a feed shape change re-plans automatically, and previously seen shapes
  keep their warm arenas;
* profiling through a plan produces the same ``OpStats`` call/FLOP/byte
  counters as the instrumented ``Session.run`` (Fig-3 parity).
"""

import numpy as np
import pytest

import repro.tfmini as tf
from repro.tfmini import graph
from repro.tfmini.ops import register_op
from repro.analysis.structures import fcc_lattice, water_box
from repro.dp.batch import BatchedEvaluator
from repro.dp.model import DeepPot, DPConfig
from repro.dp.train import TrainConfig, Trainer
from repro.md.neighbor import neighbor_pairs


def assert_results_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(np.asarray(x), np.asarray(y))


# ---------------------------------------------------------------------------
# synthetic graphs: fused vs unfused, replan, liveness, fallback
# ---------------------------------------------------------------------------


def _mlp_fetches(optimize: bool):
    """A matmul+bias+tanh block with gradients — hits the fusion passes."""
    rng = np.random.default_rng(7)
    x = tf.placeholder("x")
    w1 = tf.variable(rng.normal(size=(6, 8)), name="w1")
    b1 = tf.variable(rng.normal(size=(8,)), name="b1")
    w2 = tf.variable(rng.normal(size=(8, 1)), name="w2")
    h = tf.tanh(tf.add(tf.matmul(x, w1), b1))
    h = tf.concat(h, h, axis=-1)  # skip connection shape -> concat_sum pass
    hh = tf.add(h, tf.concat(tf.tanh(b1), tf.tanh(b1), axis=-1))
    y = tf.reduce_sum(tf.matmul(tf.slice_cols(hh, 0, 8), w2))
    grads = tf.grad(y, [w1, b1, w2])
    fetches = [y] + grads
    if optimize:
        fetches = tf.optimize_graph(fetches)
    return fetches, x


class TestSyntheticGraphs:
    @pytest.mark.parametrize("optimize", [False, True])
    def test_bitwise_vs_session_fused_and_unfused(self, optimize):
        fetches, x = _mlp_fetches(optimize)
        feeds = {x: np.random.default_rng(3).normal(size=(10, 6))}
        sess = tf.Session()
        plan = tf.compile_plan(fetches, [x])
        assert_results_equal(sess.run(fetches, feeds), plan.run(feeds))
        # steady-state run (arena-backed) must match too
        assert_results_equal(sess.run(fetches, feeds), plan.run(feeds))

    def test_fused_graph_executes_tanh_fused_records(self):
        fetches, x = _mlp_fetches(True)
        ops = {n.op for n in graph.topo_sort(fetches)}
        assert "tanh_fused" in ops and "gemm" in ops  # passes actually fired

    def test_one_topo_sort_per_plan(self):
        fetches, x = _mlp_fetches(True)
        feeds = {x: np.random.default_rng(0).normal(size=(4, 6))}
        before = graph.TOPO_SORT_CALLS
        plan = tf.compile_plan(fetches, [x])
        assert graph.TOPO_SORT_CALLS == before + 1
        for _ in range(5):
            plan.run(feeds)
        assert graph.TOPO_SORT_CALLS == before + 1
        assert plan.stats.topo_sorts == 1

    def test_zero_arena_allocations_after_warmup(self):
        fetches, x = _mlp_fetches(True)
        feeds = {x: np.random.default_rng(0).normal(size=(4, 6))}
        plan = tf.compile_plan(fetches, [x])
        plan.run(feeds)  # warm
        allocs = plan.alloc_count()
        assert allocs > 0
        for _ in range(10):
            plan.run(feeds)
        assert plan.alloc_count() == allocs

    def test_liveness_recycles_dead_slots(self):
        # A long chain of same-shape elementwise ops: with recycling the
        # arena needs far fewer buffers than the tape has records.
        x = tf.placeholder("x")
        node = x
        for _ in range(20):
            node = tf.tanh(tf.add(node, node))
        plan = tf.compile_plan(node, [x])
        out = plan.run({x: np.ones(5)})
        ref = tf.Session().run(node, {x: np.ones(5)})
        assert np.array_equal(out, ref)
        assert plan.n_records == 40
        # the fetch keeps one buffer pinned; the rest ping-pong
        assert plan.alloc_count() <= 4

    def test_shape_change_replans_and_keeps_warm_arenas(self):
        fetches, x = _mlp_fetches(False)
        sess = tf.Session()
        plan = tf.compile_plan(fetches, [x])
        fa = {x: np.random.default_rng(1).normal(size=(4, 6))}
        fb = {x: np.random.default_rng(2).normal(size=(9, 6))}
        assert_results_equal(sess.run(fetches, fa), plan.run(fa))
        assert_results_equal(sess.run(fetches, fb), plan.run(fb))
        assert plan.stats.arena_builds == 2
        allocs = plan.alloc_count()
        # revisiting either shape allocates nothing and stays bitwise right
        assert_results_equal(sess.run(fetches, fa), plan.run(fa))
        assert_results_equal(sess.run(fetches, fb), plan.run(fb))
        assert plan.stats.arena_builds == 2
        assert plan.alloc_count() == allocs

    def test_release_arenas_rewarns_and_stays_bitwise(self):
        fetches, x = _mlp_fetches(True)
        feeds = {x: np.random.default_rng(4).normal(size=(5, 6))}
        ref = tf.Session().run(fetches, feeds)
        plan = tf.compile_plan(fetches, [x])
        plan.run(feeds)
        assert plan.alloc_count() > 0
        plan.release_arenas()
        assert plan.alloc_count() == 0
        assert_results_equal(ref, plan.run(feeds))  # warm again
        assert_results_equal(ref, plan.run(feeds))  # steady again
        assert plan.alloc_count() > 0
        assert plan.stats.topo_sorts == 1  # release never recompiles

    def test_engine_release_buffers(self):
        model = DeepPot(DPConfig.tiny(sel=(8, 16), rcut=3.0))
        system = water_box((2, 2, 2), seed=2)
        pi, pj = neighbor_pairs(system, model.config.rcut)
        engine = BatchedEvaluator(model)
        ref = engine.evaluate_batch([system], [(pi, pj)])[0]
        engine.release_buffers()
        assert engine.plan.alloc_count() == 0
        res = engine.evaluate_batch([system], [(pi, pj)])[0]
        assert res.energy == ref.energy
        assert np.array_equal(res.forces, ref.forces)

    def test_arena_cap_evicts_fifo_and_stays_correct(self):
        x = tf.placeholder("x")
        node = tf.tanh(x)
        plan = tf.compile_plan(node, [x], max_arenas=2)
        sess = tf.Session()
        feeds = [{x: np.random.default_rng(k).normal(size=(k + 1,))} for k in range(4)]
        for f in feeds:  # 4 signatures through a 2-arena cap
            assert np.array_equal(plan.run(f), sess.run(node, f))
        assert len(plan.arenas) == 2
        assert plan.stats.arena_evictions == 2
        # an evicted signature re-warms and is still bitwise right
        assert np.array_equal(plan.run(feeds[0]), sess.run(node, feeds[0]))
        assert plan.stats.arena_builds == 5

    def test_wrong_feed_count_raises(self):
        x, y = tf.placeholder("x"), tf.placeholder("y")
        plan = tf.compile_plan(tf.add(x, y), [x, y])
        plan.run({x: np.ones(2), y: np.ones(2)})
        with pytest.raises(ValueError, match="expects 2 feed values"):
            plan.run_list([np.ones(2)])

    def test_register_out_kernel_upgrades_op_to_arena_mode(self):
        # The extension hook for third-party ops: attaching an out= kernel
        # after registration moves plans compiled afterwards from the copy
        # fallback to destination-passing execution, bitwise unchanged.
        from repro.tfmini.ops import register_out_kernel

        register_op("plan_test_double", lambda inputs, attrs: inputs[0] * 2.0)
        x = tf.placeholder("x")
        node = graph.Node("plan_test_double", (x,))
        feeds = {x: np.arange(5.0)}
        ref = tf.Session().run(node, feeds)

        register_out_kernel(
            "plan_test_double",
            lambda inputs, attrs, out: np.multiply(inputs[0], 2.0, out=out),
        )
        plan = tf.compile_plan(node, [x], copy_fetches=False)
        plan.run(feeds)
        out1, out2 = plan.run(feeds), plan.run(feeds)
        assert np.array_equal(out1, ref)
        assert out1 is out2  # OUT mode: stable arena buffer

    def test_missing_placeholder_raises_at_compile(self):
        x = tf.placeholder("x")
        y = tf.placeholder("y")
        with pytest.raises(KeyError, match="placeholder 'y'"):
            tf.compile_plan(tf.add(x, y), [x])

    def test_missing_feed_value_raises_at_run(self):
        x = tf.placeholder("x")
        plan = tf.compile_plan(tf.tanh(x), [x])
        with pytest.raises(KeyError, match="missing from feeds"):
            plan.run({})

    def test_variable_updates_are_visible(self):
        # Plans re-read Variable.value every run (TF1 semantics: optimizers
        # assign in place between steps).
        v = tf.variable(np.ones(3), name="v")
        x = tf.placeholder("x")
        node = tf.mul(v, x)
        plan = tf.compile_plan(node, [x])
        feeds = {x: np.full(3, 2.0)}
        assert np.array_equal(plan.run(feeds), np.full(3, 2.0))
        v.assign(np.full(3, 5.0))
        assert np.array_equal(plan.run(feeds), np.full(3, 10.0))

    def test_copy_fallback_for_ops_without_out_kernel(self):
        # An op registered with no forward_out executes under plans via the
        # allocate-and-copy-into-slot fallback: results match the oracle and
        # the slot's storage is the same stable buffer on every steady run.
        register_op("plan_test_cube", lambda inputs, attrs: inputs[0] ** 3)
        x = tf.placeholder("x")
        node = graph.Node("plan_test_cube", (x,))
        plan = tf.compile_plan(node, [x], copy_fetches=False)
        feeds = {x: np.arange(4.0)}
        ref = tf.Session().run(node, feeds)
        plan.run(feeds)  # warm run returns the plain kernel's fresh array
        out1 = plan.run(feeds)
        out2 = plan.run(feeds)
        assert np.array_equal(out1, ref)
        assert out1 is out2  # stable arena slot, not a fresh allocation

    def test_copy_fetches_decouples_results_from_arena(self):
        x = tf.placeholder("x")
        node = tf.tanh(x)
        plan = tf.compile_plan(node, [x], copy_fetches=True)
        plan.run({x: np.zeros(3)})
        a = plan.run({x: np.zeros(3)})
        b = plan.run({x: np.ones(3)})
        assert np.array_equal(a, np.tanh(np.zeros(3)))  # not clobbered by b
        assert np.array_equal(b, np.tanh(np.ones(3)))


class TestProfilingParity:
    def test_opstats_parity_with_session(self):
        fetches, x = _mlp_fetches(True)
        feeds = {x: np.random.default_rng(5).normal(size=(6, 6))}
        s_ref = tf.Session(profile=True)
        s_ref.run(fetches, feeds)

        plan = tf.compile_plan(fetches, [x])
        s_warm = tf.Session(profile=True)
        plan.run(feeds, session=s_warm)  # warm (plain kernels)
        s_steady = tf.Session(profile=True)
        plan.run(feeds, session=s_steady)  # steady (arena kernels)

        for s in (s_warm, s_steady):
            assert dict(s.stats.calls) == dict(s_ref.stats.calls)
            assert dict(s.stats.flops) == dict(s_ref.stats.flops)
            assert dict(s.stats.bytes) == dict(s_ref.stats.bytes)

    def test_unprofiled_plan_records_nothing(self):
        fetches, x = _mlp_fetches(False)
        plan = tf.compile_plan(fetches, [x])
        sess = tf.Session(profile=False)
        plan.run({x: np.ones((2, 6))}, session=sess)
        assert sess.stats.total_seconds() == 0.0


# ---------------------------------------------------------------------------
# DP models: zoo x precision, batched evaluation, training step
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def zoo_models():
    """water/copper x double/single — single via the Sec 5.2.3 fp32 clone."""
    from repro.zoo import as_mixed_precision, get_copper_model, get_water_model

    water = get_water_model()
    copper = get_copper_model()
    return {
        ("water", "double"): water,
        ("water", "single"): as_mixed_precision(water),
        ("copper", "double"): copper,
        ("copper", "single"): as_mixed_precision(copper),
    }


@pytest.fixture(scope="module")
def zoo_systems():
    # box edges must exceed 2x the zoo cutoffs (4 A water, 5 A copper)
    return {"water": water_box((3, 3, 3), seed=3), "copper": fcc_lattice((3, 3, 3))}


class TestDeepPotPlans:
    @pytest.mark.parametrize("name", ["water", "copper"])
    @pytest.mark.parametrize("precision", ["double", "single"])
    def test_zoo_bitwise_vs_session_oracle(self, zoo_models, zoo_systems, name, precision):
        """DeepPot.evaluate (compiled plan) == the same engine on Session.run."""
        model = zoo_models[(name, precision)]
        system = zoo_systems[name]
        pi, pj = neighbor_pairs(system, model.config.rcut)
        res_plan = model.evaluate(system, pi, pj)
        oracle = BatchedEvaluator(model, use_plan=False)
        res_sess = oracle.evaluate_batch([system], [(pi, pj)])[0]
        assert res_plan.energy == res_sess.energy
        assert np.array_equal(res_plan.forces, res_sess.forces)
        assert np.array_equal(res_plan.virial, res_sess.virial)
        assert np.array_equal(res_plan.atom_energies, res_sess.atom_energies)
        # ... and the serial single-frame oracle agrees too (R=1 contract)
        res_serial = model.evaluate_serial(system, pi, pj)
        assert res_plan.energy == res_serial.energy
        assert np.array_equal(res_plan.forces, res_serial.forces)

    @pytest.mark.parametrize("name", ["water", "copper"])
    def test_batched_r3_bitwise_vs_session_oracle(self, zoo_models, zoo_systems, name):
        """R>1 planned batches == the identical batch through Session.run."""
        model = zoo_models[(name, "double")]
        base = zoo_systems[name]
        systems = []
        for k in range(3):
            s = base.copy()
            rng = np.random.default_rng(50 + k)
            s.positions = s.positions + rng.normal(scale=0.02, size=s.positions.shape)
            systems.append(s)
        pls = [neighbor_pairs(s, model.config.rcut) for s in systems]
        planned = BatchedEvaluator(model).evaluate_batch(systems, pls)
        oracle = BatchedEvaluator(model, use_plan=False).evaluate_batch(systems, pls)
        for p, o in zip(planned, oracle):
            assert p.energy == o.energy
            assert np.array_equal(p.forces, o.forces)
            assert np.array_equal(p.virial, o.virial)
            assert np.array_equal(p.atom_energies, o.atom_energies)

    def test_engine_plan_counters(self, zoo_models, zoo_systems):
        model = zoo_models[("water", "double")]
        system = zoo_systems["water"]
        pi, pj = neighbor_pairs(system, model.config.rcut)
        engine = BatchedEvaluator(model)
        before = graph.TOPO_SORT_CALLS
        engine.evaluate_batch([system], [(pi, pj)])  # compile + warm
        assert graph.TOPO_SORT_CALLS == before + 1
        allocs = engine.plan.alloc_count()
        for _ in range(3):
            engine.evaluate_batch([system], [(pi, pj)])
        assert graph.TOPO_SORT_CALLS == before + 1  # no per-run topo_sort
        assert engine.plan.alloc_count() == allocs  # no steady-state allocs
        assert engine.plan.stats.runs == 4

    def test_profiled_evaluate_matches_session_oracle_counts(
        self, zoo_models, zoo_systems
    ):
        """Fig-3 instrumentation parity on the real DP graph."""
        model = zoo_models[("water", "double")]
        system = zoo_systems["water"]
        pi, pj = neighbor_pairs(system, model.config.rcut)
        planned = BatchedEvaluator(model)
        oracle = BatchedEvaluator(model, use_plan=False)
        planned.evaluate_batch([system], [(pi, pj)])  # warm outside profiling
        session = model.session
        counts = {}
        try:
            session.profile = True
            for key, engine in (("plan", planned), ("sess", oracle)):
                session.stats.reset()
                engine.evaluate_batch([system], [(pi, pj)])
                counts[key] = (
                    dict(session.stats.calls),
                    dict(session.stats.flops),
                    dict(session.stats.bytes),
                )
        finally:
            session.profile = False
            session.stats.reset()
        assert counts["plan"] == counts["sess"]
        assert sum(counts["plan"][0].values()) > 0


class TestTrainingStepPlans:
    @pytest.fixture(scope="class")
    def dataset(self):
        from repro.zoo import build_water_dataset

        return build_water_dataset(n_frames=4, seed=11)

    def test_adam_step_bitwise_vs_session_oracle(self, dataset):
        """One full Adam step through the plan == through Session.run:
        same loss, and every updated parameter bitwise identical."""
        cfg = DPConfig.tiny(rcut=4.0)
        tcfg = TrainConfig(n_steps=4, seed=5)
        m_plan = DeepPot(cfg, rng=np.random.default_rng(9))
        m_sess = DeepPot(cfg, rng=np.random.default_rng(9))
        dataset.apply_stats(m_plan)
        dataset.apply_stats(m_sess)
        t_plan = Trainer(m_plan, dataset, tcfg)
        t_sess = Trainer(m_sess, dataset, tcfg, use_plan=False)
        for _ in range(2):  # warm step + steady (arena-backed) step
            loss_p = t_plan.step()
            loss_s = t_sess.step()
            assert loss_p == loss_s
        for vp, vs in zip(t_plan.variables, t_sess.variables):
            assert np.array_equal(vp.value, vs.value), vp.name

    def test_trainer_plan_counters(self, dataset):
        cfg = DPConfig.tiny(rcut=4.0)
        model = DeepPot(cfg)
        dataset.apply_stats(model)
        trainer = Trainer(model, dataset, TrainConfig(n_steps=4, seed=5))
        trainer.step()
        before = graph.TOPO_SORT_CALLS
        trainer.step()
        trainer.step()
        assert graph.TOPO_SORT_CALLS == before  # compiled once, never again
        assert trainer.plan.stats.topo_sorts == 1
        # equal-sized frames share one warm arena: no steady-state allocs
        allocs = trainer.plan.alloc_count()
        trainer.step()
        assert trainer.plan.alloc_count() == allocs


class TestServingPlans:
    def test_server_serves_planned_results_bitwise(self):
        """The serving worker's persistent engines execute through plans;
        served results stay bitwise identical to direct evaluation."""
        from repro.serving.worker import InferenceServer

        model = DeepPot(DPConfig.tiny(sel=(8, 16), rcut=3.0))
        system = water_box((2, 2, 2), seed=1)
        pi, pj = neighbor_pairs(system, model.config.rcut)
        direct = model.evaluate(system, pi, pj)
        with InferenceServer({"tiny": model}, max_batch=4) as server:
            stats0 = server.executor_stats()["tiny"]
            assert stats0["topo_sorts"] == 1  # compiled at registration
            futures = [server.submit("tiny", system, pi, pj) for _ in range(5)]
            results = [f.result(timeout=30) for f in futures]
        for res in results:
            assert res.energy == direct.energy
            assert np.array_equal(res.forces, direct.forces)
            assert np.array_equal(res.atom_energies, direct.atom_energies)
        stats = server.executor_stats()["tiny"]
        assert stats["topo_sorts"] == 1  # still exactly one graph traversal
        assert stats["runs"] >= 2  # 5 requests, max_batch=4 -> >= 2 batches
        assert stats["arena_builds"] >= 1
