#!/usr/bin/env python3
"""Repeat benchmark runs over seeds, twice, and summarize their spread.

Run from the root of a checkout:

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/baseline/baseline.json

For each workload, ``run.py`` is run once per seed with tracing off, for
``run_seconds`` of ``BENCHMARK.json``; then the same set of runs is made
again, and with ``--traced-seed`` one more run is made traced.  For every
end-to-end metric each set's summary gives the median, the quartiles
(``statistics.quantiles(n=4)``) and their distance as a share of the
median, beside the metric's bound; the agreement gives how much worse the
second set's median is than the first's, as a share of the first.  Runs
are made one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


SETS = 2


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"result-{workload}-seed{seed}-trace{trace}.json")
                        .read_text())
    for bulky in ("records", "calibration_s"):
        record.pop(bulky, None)
    return {"seed": seed, "result": last, "record": record}


def summarize(runs: list, bench: dict) -> dict:
    out = {}
    for m in bench["end_to_end"]:
        vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        out[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med, "bound": m["bound"], "unit": m["unit"]}
    return out


def agreement(first: dict, second: dict, bench: dict) -> dict:
    """How much worse each second median is than the first, as a share of it."""
    out = {}
    for m in bench["end_to_end"]:
        a, b = first[m["name"]]["median"], second[m["name"]]["median"]
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        out[m["name"]] = {"worse_by": worse, "bound": m["bound"], "ok": worse <= m["bound"]}
    return out


def main(argv=None) -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--traced-seed", type=int, help="also make one traced run per workload")
    parser.add_argument("--out", help="write the runs and the summary here as JSON")
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]

    doc = {"seconds": seconds, "workloads": {}}
    for workload in args.workloads:
        sets = []
        for k in range(SETS):
            runs = []
            for seed in seed_list(args.seeds):
                runs.append(one_run(workload, seed, seconds, 0))
                metrics = runs[-1]["result"]["metrics"]
                print(workload, f"set{k + 1}", seed, runs[-1]["result"]["correct"],
                      " ".join(f"{k}={v['value']:.6g}" for k, v in metrics.items()), flush=True)
            sets.append({"runs": runs, "summary": summarize(runs, bench)})
            for name, s in sets[-1]["summary"].items():
                print(f"{workload} set{k + 1} {name}: median {s['median']:.6g} {s['unit']}, "
                      f"spread {s['spread']:.3f} (bound {s['bound']})", flush=True)
        entry = {"sets": sets, "agreement": agreement(sets[0]["summary"], sets[1]["summary"], bench)}
        for name, a in entry["agreement"].items():
            print(f"{workload} {name}: second median worse by {a['worse_by']:+.3f} "
                  f"(bound {a['bound']})", flush=True)
        if args.traced_seed is not None:
            entry["traced"] = one_run(workload, args.traced_seed, seconds, 1)
            print(workload, "traced:", json.dumps(entry["traced"]["result"])[:300], flush=True)
        doc["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
