"""``BENCHMARK.json`` is the one declaration of perfbench's metrics and
workloads: names, units, directions, bounds and why each workload exists.
``run.py`` emits exactly these names, ``compare.py`` reads the bounds, and
``selftest.py`` checks a traced run against the list."""

from __future__ import annotations

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    MANIFEST = json.load(_f)

END_TO_END = MANIFEST["end_to_end"]
PER_LAYER = MANIFEST["per_layer"]
WORKLOADS = {w["name"]: w["why"] for w in MANIFEST["workloads"]}
UNITS = {m["name"]: m["unit"] for m in END_TO_END + PER_LAYER}
BOUNDS = {m["name"]: m["bound"] for m in END_TO_END}
#: The simulated sums are deterministic functions of (commit, seed).
EXACT = [m["name"] for m in END_TO_END if m["unit"] == "sim_s"]
