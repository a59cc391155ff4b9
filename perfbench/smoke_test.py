#!/usr/bin/env python3
"""Smoke test of the repo benchmark: a tiny-size run of every workload,
untraced and traced, through the benchmark's own command.

    python3 perfbench/smoke_test.py

Checks, for each run: exit status 0; the last stdout line is one JSON
object with exactly the keys correct/attempted/failed/metrics; every
correctness gate passed; the metric names and units are exactly the
end_to_end (untraced) or per_layer (traced) lists of BENCHMARK.json;
every value is a finite number, and every end-to-end value is non-zero;
a traced run wrote a Chrome trace-event file. Exits 1 on any failure.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(spec, workload, trace, errors):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    where = f"{workload} trace={trace}"
    before = len(errors)
    if p.returncode != 0:
        errors.append(f"{where}: exit {p.returncode}: {p.stderr[-2000:]}")
        return
    lines = p.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        errors.append(f"{where}: last line is not JSON: {lines[-1][:200]}")
        return
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys {sorted(result)}")
        return
    if result["correct"] is not True or result["failed"] != 0:
        fails = [l for l in lines if l.startswith("FAIL")]
        errors.append(f"{where}: gates failed: {fails[:5]}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append(f"{where}: attempted = {result['attempted']}")
    want = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if [m["name"] for m in want] != list(got):
        errors.append(f"{where}: metric names differ from BENCHMARK.json: "
                      f"{sorted(set(m['name'] for m in want) ^ set(got))}")
    for m in want:
        v = got.get(m["name"])
        if v is None:
            continue
        if sorted(v) != ["unit", "value"] or v["unit"] != m["unit"]:
            errors.append(f"{where}: {m['name']} = {v}")
        elif not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
            errors.append(f"{where}: {m['name']} is not a finite number")
        elif not trace and v["value"] == 0:
            errors.append(f"{where}: end-to-end metric {m['name']} is 0")
    if trace:
        path = [l.split(" written to ")[1] for l in lines
                if l.startswith("trace: ") and " written to " in l]
        try:
            with open(os.path.join(ROOT, path[0])) as f:
                events = json.load(f)["traceEvents"]
            if not events:
                errors.append(f"{where}: trace has no spans")
        except (IndexError, OSError, ValueError, KeyError) as e:
            errors.append(f"{where}: no readable trace file ({e})")
    print(("ok   " if len(errors) == before else "BAD  ") + where, flush=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace, errors)
    for e in errors:
        print("FAIL " + e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
