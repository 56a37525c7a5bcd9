"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload md-cu864 --seed 1 --seconds 20 --trace 0

Run from the repository root.  Workloads (see ``BENCHMARK.json``):
``md-cu864``, ``dd-water-r2`` and ``serve-water``.  With ``--trace 0`` the
run measures the end-to-end metrics with no tracing installed; with
``--trace 1`` it wraps the layer functions (``perfbench/tracing.py``) and
reports the per-layer metrics instead.

Output: an environment record, the metrics by name with their units, and
as the last line one JSON object::

    {"correct": true, "attempted": 160, "failed": 0,
     "metrics": {"tts_us": {"value": 0.13, "unit": "us"}, ...}}

Zoo models are built (trained once, then cached under ``.model_zoo/``)
before any clock starts; spans go to ``.bench_out/``.  BLAS is pinned to
one thread in this process and in the serving daemon it starts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREADS = 1
WORKLOADS = ("md-cu864", "dd-water-r2", "serve-water")


def pin_environment() -> None:
    """One BLAS thread everywhere, default plan settings, and the
    checkout's own sources first on the import path (also for the
    daemon).  Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    for var in ("REPRO_PLAN_BACKEND", "REPRO_VERIFY_PLANS"):
        os.environ.pop(var, None)
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = src
    sys.path[:0] = [str(ROOT), src]


def source_digest() -> str:
    """SHA-256 over the package sources: identifies the code measured even
    in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def ensure_zoo() -> dict:
    """Build every zoo model the workloads use, outside any clock, in a
    child process: training on a cache miss then leaves no trace in this
    process's peak memory, so a hit and a miss report the same
    ``peak_rss_mb``."""
    cache = ROOT / ".model_zoo"
    before = set(os.listdir(cache)) if cache.is_dir() else set()
    subprocess.run(
        [sys.executable, "-c",
         "from repro import zoo; zoo.get_copper_model(); zoo.get_water_model()"],
        check=True, cwd=ROOT, stdout=subprocess.DEVNULL,
    )
    built = sorted(set(os.listdir(cache)) - before)
    return {"zoo_cache": "miss" if built else "hit", "zoo_built": built}


def environment(zoo_state: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        **zoo_state,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small systems and short phases (self-check)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no package sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    pin_environment()
    zoo_state = ensure_zoo()
    from perfbench import md, serve

    env = environment(zoo_state)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    if args.workload == "serve-water":
        outcome = serve.run(args.seed, args.seconds, bool(args.trace),
                            args.tiny, spans)
    else:
        outcome = md.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.tiny, spans)

    missing = [m["name"] for m in declared if m["name"] not in outcome.metrics]
    if missing:
        raise RuntimeError(f"workload did not report {missing}")
    print("env: " + json.dumps(env))
    print("details: " + json.dumps(outcome.details))
    print(f"operations: {outcome.attempted} attempted, "
          f"{outcome.attempted - outcome.failed} completed, "
          f"{outcome.failed} failed")
    metrics = {}
    for m in declared:
        value = float(outcome.metrics[m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} = {value:.6g} {m['unit']}")
    print(json.dumps({
        "correct": bool(outcome.correct),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
