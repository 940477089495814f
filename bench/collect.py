"""Run the benchmark over several seeds and write BENCH_<tag>.json.

    python3 bench/collect.py --tag baseline --seeds 1-10

For every workload: one untraced run per seed (median, quartiles and the
quartile spread as a share of the median for each end-to-end metric), then
two traced runs on the first seed: the first gives the per-layer table, and
the deterministic counters of the two must be identical.  Runs are
sequential, each in its own process.  The file lands in bench/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    seconds = config["run_seconds"]
    seeds = parse_seeds(args.seeds)

    out = {"tag": args.tag, "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in names:
        runs, infos = [], []
        for seed in seeds:
            info, result = run_once(workload, seed, seconds, 0)
            print(workload, seed, json.dumps(result), flush=True)
            runs.append(result)
            infos.append(info)
        out["env"] = infos[0]["env"]
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        info, traced = run_once(workload, seeds[0], seconds, 1)
        again, _ = run_once(workload, seeds[0], seconds, 1)
        out["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "failed_frac": [i["failed_frac"] for i in infos],
            "outcomes": [i["outcomes"] for i in infos],
            "outcomes_by_kind_first_seed": infos[0]["outcomes_by_kind"],
            "job_samples": [i["job_samples"] for i in infos],
            "paper_latency_s": {k: [i[k] for i in infos] for k in ("snf_s", "mccoy_s")
                                if k in infos[0]},
            "end_to_end": metrics,
            "per_layer_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "tracing_base": info["tracing_base"],
            "counters": info["counters"],
            "counters_repeat": info["counters_repeat"] and again["counters_repeat"]
                               and info["counters"] == again["counters"],
        }
        if not out["workloads"][workload]["counters_repeat"]:
            print(f"{workload}: deterministic counters differ between two traced runs",
                  file=sys.stderr)
    path = BENCH_DIR / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
