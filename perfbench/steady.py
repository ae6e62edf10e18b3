#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports how steady each metric is.

    python3 perfbench/steady.py --workloads paper_day,dc_day --seeds 1-10 --out perfbench/results/set-a.jsonl
    python3 perfbench/steady.py --from perfbench/results/set-a.jsonl

Each run is the BENCHMARK.json command with --workload/--seed/--seconds/--trace 0,
from the repository root. Every run's stdout (all lines) is appended to --out as
one JSON record. For each end-to-end metric the script prints min, the quartiles
(Python's statistics.quantiles(values, n=4)), max, and the quartile spread as a
share of the median next to the metric's bound. --from prints the same table
from a recorded file without running anything.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def table(workload, values, bounds):
    for name, vals in values.items():
        if len(vals) < 2:
            print(f"{workload:10} {name:26} n={len(vals)} value={vals[0]:.6g}")
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or name == "setup_s" or spread < bound / 3 else "  <-- over a third of the bound"
        print(f"{workload:10} {name:26} n={len(vals):2} min={min(vals):.6g} q1={q1:.6g} "
              f"median={med:.6g} q3={q3:.6g} max={max(vals):.6g} spread={spread:.4f} "
              f"bound={bound}{flag}")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out")
    ap.add_argument("--from", dest="recorded")
    args = ap.parse_args()
    if args.recorded:
        values = {}
        for line in (ROOT / args.recorded).read_text().splitlines():
            rec = json.loads(line)
            result = json.loads(rec["stdout"][-1])
            per = values.setdefault(rec["workload"], {})
            for name, m in result["metrics"].items():
                per.setdefault(name, []).append(m["value"])
            # Metrics the run prints but does not gate, as "name = value unit".
            for line in rec["stdout"][:-1]:
                m = re.match(r"^(\w+) = ([-0-9.e+]+) ", line)
                if m and m.group(1) not in result["metrics"]:
                    per.setdefault("printed " + m.group(1), []).append(float(m.group(2)))
        for workload, vals in values.items():
            table(workload, vals, bounds)
        return 0
    if not args.out:
        ap.error("--out is required unless --from is given")
    out = ROOT / args.out
    out.parent.mkdir(parents=True, exist_ok=True)
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", args.trace]
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            elapsed = time.monotonic() - start
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            with out.open("a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed, "exit": proc.returncode,
                                    "elapsed_s": round(elapsed, 2), "stdout": lines}) + "\n")
            if proc.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {elapsed:.1f} s", file=sys.stderr)
        table(workload, values, bounds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
