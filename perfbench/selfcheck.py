"""Consistency check of the benchmark's own description.

Checks ``BENCHMARK.json`` (keys, names, units, bounds) and
``perfbench/layers.json`` (every per-layer metric has a prediction, and each
prediction, written ``metric@workload``, names an existing end-to-end metric
and workload). ``run.py`` refuses to run when this finds a problem; run it
alone with

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
LAYERS_PATH = os.path.join(HERE, "layers.json")

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _metric_problems(kind, metrics, keys, seen):
    out = []
    for m in metrics:
        if set(m) != keys:
            out.append(f"{kind} metric {m.get('name')!r} has keys {sorted(m)}")
            continue
        if not NAME.fullmatch(m["name"]):
            out.append(f"{kind} metric name {m['name']!r} is not [A-Za-z0-9_.-]+")
        if m["name"] in seen:
            out.append(f"name {m['name']!r} is used twice")
        seen.add(m["name"])
        if not UNIT.fullmatch(m["unit"]):
            out.append(f"unit {m['unit']!r} of {m['name']!r} is not allowed")
        if m["better"] not in ("lower", "higher"):
            out.append(f"{m['name']}: better must be lower or higher")
        if "bound" in m and not (isinstance(m["bound"], (int, float)) and 0 < m["bound"] <= 0.25):
            out.append(f"{m['name']}: bound must be in (0, 0.25]")
    return out


def problems() -> list[str]:
    try:
        spec = load_spec()
        with open(LAYERS_PATH, encoding="utf-8") as fh:
            layers = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"cannot read the benchmark description: {exc}"]
    out = []
    if set(spec) != TOP_KEYS:
        out.append(f"BENCHMARK.json keys are {sorted(spec)}, want {sorted(TOP_KEYS)}")
        return out
    seen: set[str] = set()
    workloads = set()
    for w in spec["workloads"]:
        if (set(w) != {"name", "why"} or not NAME.fullmatch(w["name"])
                or "\n" in w["why"] or len(w["why"]) > 200):
            out.append(f"workload {w!r} needs a valid name and a one-line why")
            continue
        if w["name"] in seen:
            out.append(f"name {w['name']!r} is used twice")
        seen.add(w["name"])
        workloads.add(w["name"])
    e2e_keys = {"name", "unit", "better", "bound"}
    out += _metric_problems("end_to_end", spec["end_to_end"], e2e_keys, seen)
    out += _metric_problems("per_layer", spec["per_layer"], {"name", "unit", "better"}, seen)
    e2e = {m["name"] for m in spec["end_to_end"]}
    if "setup_s" not in e2e:
        out.append("end_to_end must include setup_s")
    predictions = layers["predictions"]
    for m in spec["per_layer"]:
        if m["name"] not in predictions:
            out.append(f"per-layer metric {m['name']!r} has no prediction in layers.json")
    for name, pred in predictions.items():
        if name not in {m["name"] for m in spec["per_layer"]}:
            out.append(f"layers.json predicts for unknown per-layer metric {name!r}")
        refs = pred.get("moves", []) + pred.get("no_change", [])
        if not refs:
            out.append(f"{name}: a prediction needs at least one end-to-end metric")
        for ref in refs:
            metric, _, workload = ref.partition("@")
            if metric not in e2e:
                out.append(f"{name}: unknown end-to-end metric {metric!r}")
            if workload not in workloads:
                out.append(f"{name}: unknown workload {workload!r}")
    return out


if __name__ == "__main__":
    found = problems()
    for line in found:
        print(line)
    print("ok" if not found else f"{len(found)} problem(s)")
    sys.exit(1 if found else 0)
