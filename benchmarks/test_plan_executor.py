"""Compiled execution plans — fixed per-run executor cost vs ``Session.run``.

The plan layer's thesis (the paper's Sec 5.3 lesson applied to our own
executor): in a steady-shape loop, graph traversal, per-node dict dispatch
and per-op output allocation are fixed costs that should be paid once, not
once per step.  Two kinds of assertions:

* deterministic (always on): a compiled plan performs exactly ONE
  ``topo_sort`` over its lifetime no matter how many times it runs, the
  buffer arena stops allocating after one warm run per feed-shape
  signature, and the planned result is bitwise identical to the
  ``Session.run`` oracle;
* wall-clock (paired interleaved trials, median-based, gated on
  REPRO_BENCH_STRICT per the noisy-host policy): the planned run of the
  same fetches/feeds is measurably faster than ``Session.run``.

The workload is the real DP graph at laptop scale (tiny water model, small
cell) — the regime where fixed executor cost is a large fraction of a step,
i.e. exactly the regime MD steps and micro-batched serving live in.
"""

import numpy as np
import pytest

from benchmarks.conftest import (
    bench_median,
    bench_paired_trials,
    bench_strict,
    print_header,
)
import repro.tfmini as tf
from repro.analysis.structures import water_box
from repro.dp.batch import BatchedEvaluator
from repro.dp.model import DeepPot, DPConfig
from repro.md.neighbor import neighbor_pairs
from repro.tfmini import graph

RESULTS = {}


@pytest.fixture(scope="module")
def model():
    return DeepPot(DPConfig.tiny(sel=(8, 16), rcut=3.0))


@pytest.fixture(scope="module")
def workload(model):
    """Fixed fetches + feeds: the serial path's full fetch set on one frame."""
    system = water_box((2, 2, 2), seed=0)
    pi, pj = neighbor_pairs(system, model.config.rcut)
    feeds, _order = model.prepare_feeds(system, pi, pj)
    fetches = [model._f_energy, model._f_forces, model._f_virial] + list(
        model._f_e_atoms
    )
    feed_nodes = list(feeds)
    plan = tf.compile_plan(fetches, feed_nodes, copy_fetches=False)
    plan.run(feeds)  # warm the arena
    return fetches, feeds, plan, system, (pi, pj)


def test_one_topo_sort_across_n_runs(workload):
    """Deterministic: N planned runs perform ZERO graph traversals; the one
    traversal happened at compile time."""
    _fetches, feeds, plan, _system, _pl = workload
    before = graph.TOPO_SORT_CALLS
    for _ in range(25):
        plan.run(feeds)
    assert graph.TOPO_SORT_CALLS == before
    assert plan.stats.topo_sorts == 1


def test_zero_steady_state_arena_allocations(workload):
    """Deterministic: the warm arena never allocates again."""
    _fetches, feeds, plan, _system, _pl = workload
    allocs = plan.alloc_count()
    assert allocs > 0  # the arena exists and is in use
    for _ in range(25):
        plan.run(feeds)
    assert plan.alloc_count() == allocs
    assert plan.stats.arena_builds == 1


def test_session_pays_topo_sort_per_run(workload):
    """The oracle's fixed cost is real: one traversal per Session.run."""
    fetches, feeds, _plan, _system, _pl = workload
    sess = tf.Session()
    before = graph.TOPO_SORT_CALLS
    for _ in range(5):
        sess.run(fetches, feeds)
    assert graph.TOPO_SORT_CALLS == before + 5


def test_planned_engine_steady_counters(model):
    """Deterministic, engine level: an MD-style loop (same frame shape every
    step) compiles once, warms once, then runs allocation-free — plan arena
    AND staging scratch."""
    system = water_box((2, 2, 2), seed=1)
    pi, pj = neighbor_pairs(system, model.config.rcut)
    engine = BatchedEvaluator(model)
    engine.evaluate_batch([system], [(pi, pj)])  # compile + warm
    topo_before = graph.TOPO_SORT_CALLS
    arena_before = engine.plan.alloc_count()
    scratch_before = engine.scratch.alloc_count
    for _ in range(10):
        engine.evaluate_batch([system], [(pi, pj)])
    assert graph.TOPO_SORT_CALLS == topo_before
    assert engine.plan.alloc_count() == arena_before
    assert engine.scratch.alloc_count == scratch_before
    assert engine.plan.stats.runs == 11


def test_fig3_scale_copper_arena_reduction():
    """Fig 3 scale: the 256-atom copper cell with the paper's Cu
    hyper-parameters (r_c=7 Å, sel=220).  PR 3's FIFO recycler needed
    ~581 MB of arena for this plan; interference coloring must come in
    strictly below the simulated FIFO footprint of the SAME tape."""
    from repro.analysis.structures import fcc_lattice

    model = DeepPot(
        DPConfig(type_names=("Cu",), rcut=7.0, rcut_smth=2.0, sel=(220,))
    )
    system = fcc_lattice((4, 4, 4))
    pi, pj = neighbor_pairs(system, model.config.rcut)
    engine = BatchedEvaluator(model)
    engine.evaluate_batch([system], [(pi, pj)])  # compile + warm
    colored = engine.plan.arena_nbytes()
    fifo = engine.plan.fifo_arena_nbytes()
    assert colored < fifo
    # The FIFO baseline reproduces PR 3's measured figure; coloring's win
    # at this scale must be substantial, not marginal.
    assert fifo > 500e6
    assert colored < 0.9 * fifo
    RESULTS["fig3_colored_MB"] = colored / 1e6
    RESULTS["fig3_fifo_MB"] = fifo / 1e6
    engine.plan.release_arenas()


def test_bitwise_oracle_correspondence(workload):
    fetches, feeds, plan, _system, _pl = workload
    sess = tf.Session()
    ref = sess.run(fetches, feeds)
    out = plan.run(feeds)
    for r, o in zip(ref, out):
        assert np.array_equal(np.asarray(r), np.asarray(o))


def test_plan_vs_session_timing(benchmark, workload):
    """Wall clock: planned execution beats the per-run-rederiving oracle."""
    fetches, feeds, plan, _system, _pl = workload
    sess = tf.Session()

    t_plan = bench_median(benchmark, lambda: plan.run(feeds), rounds=5)
    RESULTS["t_plan_ms"] = t_plan * 1e3

    # Paired interleaved trials (noisy-host policy): plan and Session run
    # back-to-back inside each trial; the median per-trial ratio is asserted
    # only under REPRO_BENCH_STRICT.
    reps = 10

    def run_plan():
        for _ in range(reps):
            plan.run(feeds)

    def run_sess():
        for _ in range(reps):
            sess.run(fetches, feeds)

    ratios = bench_paired_trials(run_plan, run_sess, trials=7)
    RESULTS["ratio_median"] = float(np.median(ratios))
    RESULTS["ratio_best"] = float(np.min(ratios))
    if bench_strict():
        assert RESULTS["ratio_median"] < 0.95
        assert RESULTS["ratio_best"] < 0.9


def test_zz_report(benchmark, workload, model):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    _fetches, _feeds, plan, _system, _pl = workload
    print_header("Compiled execution plans — fixed cost per run vs Session.run")
    print(f"tape records:            {plan.n_records}")
    print(f"arena buffers allocated: {plan.alloc_count()} "
          f"({plan.arena_nbytes() / 1e6:.1f} MB, interference-colored)")
    print(f"topo_sorts (lifetime):   {plan.stats.topo_sorts} over "
          f"{plan.stats.runs} runs")
    colored, fifo = plan.arena_nbytes(), plan.fifo_arena_nbytes()
    print(f"coloring vs FIFO:        {colored / 1e3:.1f} kB "
          f"vs {fifo / 1e3:.1f} kB (-{100 * (fifo - colored) / fifo:.1f}%)")
    if "fig3_colored_MB" in RESULTS:
        red = 1 - RESULTS["fig3_colored_MB"] / RESULTS["fig3_fifo_MB"]
        print(f"fig3-scale copper arena: {RESULTS['fig3_colored_MB']:.1f} MB "
              f"colored vs {RESULTS['fig3_fifo_MB']:.1f} MB FIFO "
              f"(-{100 * red:.1f}%)")
    if "ratio_median" in RESULTS:
        print(f"planned run:             {RESULTS['t_plan_ms']:.2f} ms")
        print(f"plan/Session ratio:      {RESULTS['ratio_median']:.2f}x median / "
              f"{RESULTS['ratio_best']:.2f}x best "
              f"({1 / RESULTS['ratio_median']:.2f}x speedup)")
    print("(one graph traversal per plan lifetime; steady-state runs are a")
    print(" flat slot-indexed tape walk into persistent recycled buffers)")
