"""Static plan verifier: structural soundness, symbolic shape inference,
mutation-detection, and zoo-wide coverage.

The mutation tests are the verifier's own soundness check: each one takes a
plan that verifies clean, corrupts exactly the invariant a rule claims to
guard (a read after the liveness pass retired the slot, a broken alias
union, an unpinned fetch, a mistyped cast), and asserts the verifier
reports that rule at the corrupted record — so a future allocator bug
cannot slip past a verifier that silently stopped looking.
"""

import json

import numpy as np
import pytest

from repro import tfmini as tf
from repro.analysis.plancheck import (
    FeedSpec,
    PlanVerificationError,
    check_all_plans,
    dp_feed_spec,
    spec_from_last_run,
    train_feed_spec,
    verify_plan,
)
from repro.analysis.shapes import Dim, InferContext, ShapeError, dim_div
from repro.analysis.structures import water_box
from repro.dp.batch import BatchedEvaluator
from repro.dp.model import DeepPot
from repro.md.neighbor import neighbor_pairs
from repro.tfmini.plan import _INF, compile_plan
from repro.zoo import water_config


def chain_plan():
    """x -> tanh -> tanh -> tanh, fetch the last: 3 records, no aliases."""
    x = tf.placeholder("x", dtype=np.float64)
    a = tf.tanh(x)
    b = tf.tanh(a)
    c = tf.tanh(b)
    plan = compile_plan([c], [x])
    plan.run({x: np.ones((4, 3))})
    return plan


def perturbed(base, n, scale=0.02):
    out = []
    for k in range(n):
        s = base.copy()
        rng = np.random.default_rng(100 + k)
        s.positions = s.positions + rng.normal(scale=scale, size=s.positions.shape)
        out.append(s)
    return out


class TestDimAlgebra:
    def test_polynomial_arithmetic(self):
        n = Dim.symbol("n")
        assert repr(n + n) == "2*n"
        assert (n + 4) - 4 == n
        assert (3 * n).value is None
        assert (n - n).value == 0
        assert Dim.const(7).value == 7

    def test_exact_division(self):
        n = Dim.symbol("n")
        assert dim_div(n * 4, 4) == n
        assert dim_div(n * 4, n) == 4
        assert dim_div(n * 4 + 4, 4) == n + 1
        assert dim_div(n * 4 + 2, 4) is None
        assert dim_div(12, 4) == 3
        assert dim_div(12, 5) is None

    def test_unify_binds_bare_symbols(self):
        ctx = InferContext()
        n = Dim.symbol("n")
        ctx.unify(n, 12)
        assert ctx.resolve(n) == 12
        assert ctx.resolve(n + 3) == 15

    def test_unify_rejects_provable_mismatch(self):
        ctx = InferContext()
        with pytest.raises(ShapeError):
            ctx.unify(3, 4)

    def test_broadcast_symbolic(self):
        ctx = InferContext()
        n = Dim.symbol("n")
        assert ctx.broadcast((n, 1), (n, 5)) == (n, 5)
        assert ctx.broadcast((1,), (n, 4)) == (n, 4)


class TestStructuralSoundness:
    def test_clean_plan_verifies(self):
        plan = chain_plan()
        report = verify_plan(plan)
        assert report.ok
        assert report.n_records == 3
        assert len(report.records) == 3

    def test_p101_undefined_read(self):
        plan = chain_plan()
        plan._records[1].input_slots = (10**9,)
        report = verify_plan(plan)
        assert [(f.rule, f.record) for f in report.findings] == [("P101", 1)]

    def test_p102_use_after_free(self):
        plan = chain_plan()
        # Record 2 now reads record 0's output, whose storage group the
        # liveness pass retired after record 1 consumed it.
        slot_a = plan._records[0].out_slot
        assert plan.death_index(slot_a) == 1
        plan._records[2].input_slots = (slot_a,)
        report = verify_plan(plan)
        assert [(f.rule, f.record) for f in report.findings] == [("P102", 2)]

    def test_p103_arena_reuse_overlap(self):
        plan = chain_plan()
        arena = next(iter(plan._arenas.values()))
        # Hand record 0's pinned... no: record 2 is the fetch (pinned).
        # Give record 1 the same buffer object record 0 owns while record
        # 0's group is still live at record 1 (its death IS record 1).
        assert plan.death_index(plan._records[0].out_slot) == 1
        arena.buffers[1] = arena.buffers[0]
        report = verify_plan(plan)
        assert ("P103", 1) in [(f.rule, f.record) for f in report.findings]

    def test_p104_alias_group_broken(self):
        x = tf.placeholder("x", dtype=np.float64)
        a = tf.tanh(x)
        flat = tf.reshape(a, (-1,))
        plan = compile_plan([flat, a], [x])
        plan.run({x: np.ones((4, 3))})
        (alias_idx, alias_rec), = [
            (i, r) for i, r in enumerate(plan._records) if r.op == "reshape"
        ]
        # Break the union for the alias input: pretend its storage group is
        # separate from the view output's.
        broken = alias_rec.input_slots[0]
        orig_find = plan._find
        plan._find = lambda s: s if s == broken else orig_find(s)
        plan._death[broken] = _INF  # keep the read itself "alive" (isolate P104)
        report = verify_plan(plan)
        assert ("P104", alias_idx) in [
            (f.rule, f.record) for f in report.findings
        ]

    def test_p105_fetch_unpinned(self):
        plan = chain_plan()
        fetch = plan._fetch_slots[0]
        plan._death[plan._find(fetch)] = 0
        report = verify_plan(plan)
        assert "P105" in report.rules()

    def test_raise_on_findings(self):
        plan = chain_plan()
        plan._records[1].input_slots = (10**9,)
        with pytest.raises(PlanVerificationError) as exc:
            plan.verify(raise_on_findings=True)
        assert "P101" in str(exc.value)
        assert not exc.value.report.ok

    def test_report_json(self):
        plan = chain_plan()
        plan._records[1].input_slots = (10**9,)
        payload = json.loads(verify_plan(plan).to_json())
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "P101"
        assert payload["findings"][0]["record"] == 1


class TestSymbolicInference:
    def test_p106_missing_feed(self):
        plan = chain_plan()
        report = verify_plan(plan, spec={})
        assert "P106" in report.rules()

    def test_p107_shape_mismatch(self):
        x = tf.placeholder("x", dtype=np.float64)
        w = tf.constant(np.ones((3, 5)))
        plan = compile_plan([tf.matmul(x, w)], [x])
        report = verify_plan(plan, spec={x: FeedSpec((4, 7), np.float64)})
        assert "P107" in report.rules()
        (finding,) = report.by_rule("P107")
        assert "matmul" in finding.message or finding.op == "matmul"

    def test_symbolic_dims_propagate(self):
        x = tf.placeholder("x", dtype=np.float64)
        w = tf.constant(np.ones((3, 5)))
        y = tf.reshape(tf.matmul(x, w), (-1,))
        plan = compile_plan([y], [x])
        report = verify_plan(plan, spec={x: FeedSpec(("n", 3), np.float64)})
        assert report.ok
        assert any("5*n" in line for line in report.records)

    def test_p108_mistyped_cast_flags_downstream(self):
        model = DeepPot(water_config("mixed"))
        engine = BatchedEvaluator(model)
        s = water_box((3, 3, 3), seed=0)
        engine.evaluate_batch([s], [neighbor_pairs(s, model.config.rcut)])
        plan = engine.plan
        assert plan.verify(spec=dp_feed_spec(model)).ok
        # Mis-type the first downcast: it now emits fp64 into an fp32
        # network region.  attrs are copied — node.attrs is shared with the
        # graph and must stay intact for other tests.
        idx, rec = next(
            (i, r) for i, r in enumerate(plan._records)
            if r.op == "cast" and r.attrs["dtype"] == np.float32
        )
        rec.attrs = {**rec.attrs, "dtype": np.dtype(np.float64)}
        report = verify_plan(plan, spec=dp_feed_spec(model))
        mix = report.by_rule("P108")
        assert mix and all(f.record > idx for f in mix)

    def test_runtime_disagreement_detected(self):
        plan = chain_plan()
        # Claim the feed is (5, 2) when the recorded run used (4, 3).
        x_node = plan._feed_nodes[0]
        report = verify_plan(
            plan, spec={x_node: FeedSpec((5, 2), np.float64)}, check_values=True
        )
        assert "P107" in report.rules()

    def test_spec_from_last_run(self):
        plan = chain_plan()
        spec = spec_from_last_run(plan)
        (fs,) = spec.values()
        assert fs.shape == (4, 3) and fs.dtype == np.float64
        assert verify_plan(plan, spec=spec, check_values=True).ok


class TestZooCoverage:
    @pytest.fixture(scope="class")
    def water(self):
        model = DeepPot(water_config("double"))
        return model, water_box((3, 3, 3), seed=0)

    def test_engine_plan_r1_and_r3(self, water):
        model, base = water
        engine = BatchedEvaluator(model)
        spec = dp_feed_spec(model)
        for reps in ([base], perturbed(base, 3)):
            pls = [neighbor_pairs(s, model.config.rcut) for s in reps]
            engine.evaluate_batch(reps, pls)
            report = engine.plan.verify(spec=spec, check_values=True)
            assert report.ok, report.summary()

    def test_engine_plan_locals_first_stacked(self, water):
        """Ghost/domain-decomposition staging: per-frame nloc < natoms."""
        model, base = water
        engine = BatchedEvaluator(model)
        reps = perturbed(base, 2)
        pls = [neighbor_pairs(s, model.config.rcut) for s in reps]
        nlocs = [reps[0].n_atoms // 2, reps[1].n_atoms]
        engine.evaluate_batch(reps, pls, nlocs=nlocs)
        report = engine.plan.verify(spec=dp_feed_spec(model), check_values=True)
        assert report.ok, report.summary()

    def test_trainer_plan_symbolic(self, water):
        from repro.dp.data import label_frames
        from repro.dp.train import TrainConfig, Trainer
        from repro.oracles import FlexibleWater

        model, base = water
        dataset = label_frames([base.copy()], FlexibleWater(cutoff=4.0))
        dataset.apply_stats(model)
        trainer = Trainer(model, dataset, TrainConfig(n_steps=1, log_every=10))
        report = trainer.plan.verify(spec=train_feed_spec(trainer))
        assert report.ok, report.summary()

    def test_check_all_plans_clean(self):
        results = check_all_plans()
        assert len(results) == 10  # 2 species x {2 eval, 2 serving, 1 train}
        for entry in results:
            assert entry["report"].ok, (
                entry["plan"] + "\n" + entry["report"].summary()
            )
            assert not entry["report"].notes, entry["plan"]


class TestCompileHooks:
    def test_compile_plan_verify_kwarg(self):
        x = tf.placeholder("x", dtype=np.float64)
        plan = compile_plan([tf.tanh(x)], [x], verify=True)
        assert plan.n_records == 1

    def test_env_toggle(self, monkeypatch):
        calls = []
        import repro.tfmini.plan as planmod

        orig = planmod.ExecutionPlan.verify

        def spy(self, *a, **k):
            calls.append(k)
            return orig(self, *a, **k)

        monkeypatch.setattr(planmod.ExecutionPlan, "verify", spy)
        x = tf.placeholder("x", dtype=np.float64)
        monkeypatch.setenv("REPRO_VERIFY_PLANS", "1")
        compile_plan([tf.tanh(x)], [x])
        assert calls == [{"raise_on_findings": True}]
        monkeypatch.setenv("REPRO_VERIFY_PLANS", "0")
        compile_plan([tf.tanh(x)], [x])
        assert len(calls) == 1
