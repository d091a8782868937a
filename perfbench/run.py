#!/usr/bin/env python3
"""Benchmark of the fishid pipeline, run from the root of a source checkout.

    python3 perfbench/run.py --workload classify-1600 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process

``--trace 0`` measures the end-to-end metrics with nothing wrapped around the
program. ``--trace 1`` is a separate run that also replays each operation
layer by layer (see ``tracer.py``) and reports the per-layer metrics, the
self time of every span, and the tracing overhead (traced minus untraced
time of the same operation). Metric definitions, the workloads and the
per-layer -> end-to-end predictions are in ``BENCHMARK.json`` and
``perfbench/layers.json``. Timed end-to-end metrics are given at the
reference speed of ``speed.py``, which corrects for a shared host's drift;
the raw times are printed next to them.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. The exit code
is 0 only if every operation and correctness check passed; it is 2, with no
result, when the checkout has no ``src/fishid`` or the benchmark's own files
disagree. Generated inputs go to a temporary directory under ``.perfbench/``
(removed at exit); result files and spans are written to
``.perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("experiment", "classify-1600")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-pins", action="store_true",
                   help="with the pinned seed: write observed digests to pins.json")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _cap_threads() -> int:
    """Run BLAS/OpenMP single-threaded; must run before numpy is imported.

    On a 2-vCPU host a second BLAS thread bought no median speed on a
    1600x820 analysis (~610 ms either way) but cost ~40% more CPU time and
    widened the spread, because its timing then hangs on a second core the
    host shares. Returns the CPUs this process may use."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def _environment(nproc) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": nproc,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _named(run, metrics) -> list[tuple[str, float, str]]:
    """The workload's headline numbers under their own names (the JSON line
    uses the workload-neutral names of BENCHMARK.json; see layers.json),
    then the raw times and the speed factor that scales them."""
    import workloads

    factor = run.speed.factor()

    def med(key):  # at the reference speed, like the metric it is part of
        vals = run.named.get(key)
        return statistics.median(vals) / factor if vals else float("nan")

    if run.workload == "experiment":
        rows = [("train_s", med("train_s"), "s"), ("evaluate_s", med("evaluate_s"), "s")]
    else:
        rows = [("classify_ms_p50", metrics["latency_ms_p50"], "ms"),
                ("classify_ms_p75", metrics["latency_ms_tail"], "ms")]
    wall = workloads.wall_times(run)
    return rows + [
        ("poison_recall", float(run.poison_recall or 0.0), "ratio"),
        ("wall_setup_s", wall["setup_s"], "s"),
        ("wall_ms_p50", wall["latency_ms_p50"], "ms"),
        ("wall_ms_tail", wall["latency_ms_tail"], "ms"),
        ("speed_factor", factor, "ratio"),
    ]


def run_one(name, args, env, spec) -> dict:
    """Run one workload; prints its lines and returns its JSON result."""
    import tracer
    import workloads

    out_dir = os.path.join(ROOT, ".perfbench", "out")
    tmp_root = os.path.join(ROOT, ".perfbench", "tmp")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(tmp_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as workdir:
        run = workloads.Run(name, args.seed, args.seconds, args.trace, workdir, args.record_pins)
        workloads.run_workload(run)
    run.pins.save()

    ledger = run.ledger
    attempted, failed = ledger.total_attempted, ledger.total_failed
    failed_ratio = failed / attempted if attempted else 1.0
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    tag = f"{name}-seed{args.seed}-trace{args.trace}"
    print(f"# workload {name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    if args.trace:
        wanted = [m["name"] for m in spec["per_layer"]]
        metrics = tracer.layer_metrics(run.tracer, wanted)
        metrics["failed_ratio"] = failed_ratio
        print("# self time per span (ms): name calls total median")
        for span, calls, total, med in tracer.self_time_table(run.tracer):
            print(f"#   {span:34s} {calls:6d} {total:11.2f} {med:9.3f}")
        run.tracer.write(os.path.join(out_dir, f"{tag}-spans.jsonl"))
    else:
        metrics = workloads.end_to_end(run)
        wanted = [m["name"] for m in spec["end_to_end"]]
        print(f"# timed operations {len(run.latency_ms)}; latency_ms_tail is "
              f"p{workloads.WORKLOADS[name][0]}; set-up repeats {len(run.setup_s)}")
        for key, value, unit in _named(run, metrics) + [("failed_ratio", failed_ratio, "ratio")]:
            print(f"{key:28s} {_fmt(value):>14s} {unit}")
    for key in wanted:
        print(f"{key:28s} {_fmt(metrics.get(key, float('nan'))):>14s} {units[key]}")
    for f in ledger.failures[:20]:
        print(f"# FAILED [{f['phase']}] {f['item']}: {f['error']} stage={f['stage']}: {f['message']}")
    result = {
        "correct": failed == 0 and all(k in metrics for k in wanted),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in wanted if k in metrics},
    }
    with open(os.path.join(out_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({
            "env": env,
            "args": vars(args) | {"workload": name},
            "result": result,
            "named": run.named,
            "attempted": dict(ledger.attempted),
            "failed": dict(ledger.failed),
            "failures": ledger.failures,
            "setup_s": run.setup_s,
            "latency_ms": run.latency_ms,
            "kernel_ms": run.speed.samples_ms,
            "speed_factor": run.speed.factor(),
        }, fh, indent=1, sort_keys=True)
    return result


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fishid", "__init__.py")):
        print(f"error: no fishid sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    import selfcheck

    problems = selfcheck.problems()
    if problems:
        for line in problems:
            print(f"error: {line}", file=sys.stderr)
        return 2
    nproc = _cap_threads()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    env = _environment(nproc)
    print(f"# env {json.dumps(env, sort_keys=True)}")
    spec = selfcheck.load_spec()
    if {w["name"] for w in spec["workloads"]} != set(WORKLOAD_NAMES):
        print("error: BENCHMARK.json lists other workloads than run.py runs", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {name: run_one(name, args, env, spec) for name in names}
    if len(results) == 1:
        final = results[args.workload]
    else:  # one line for the whole set; peak_rss_mb is cumulative here
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
