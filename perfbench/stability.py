#!/usr/bin/env python3
"""Runs the benchmark once per seed on each workload and reports, for every
end-to-end metric, the median, the quartiles and the spread (inter-quartile
distance as a share of the median) over the seeds. The JSON written with
--out also records the host: CPU count, GOMAXPROCS, Go version, CPU model
and the CPU steal observed while the runs were made (Linux /proc/stat).

Run from the repository root:

    python3 perfbench/stability.py --seeds 1-10 --out capture.json pd-steady

The spread of each metric is compared with a third of its bound in
BENCHMARK.json; a metric above that is flagged with "!".
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cpu_times():
    """Returns the aggregate CPU jiffies from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return None


def steal_share(before, after):
    """Share of CPU time stolen by the hypervisor between two samples."""
    if not before or not after or len(before) < 8:
        return None
    d = [b - a for a, b in zip(before, after)]
    return d[7] / sum(d) if sum(d) else None


def host_info():
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            model = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), None)
    except OSError:
        pass
    ncpu = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
    return {"nproc": ncpu, "gomaxprocs": int(os.environ.get("GOMAXPROCS", ncpu)),
            "go_version": go, "cpu_model": model, "os": platform.platform()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", help="write the per-workload statistics here as JSON")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    result = {"host": host_info(), "seeds": args.seeds, "workloads": {}}
    capture_start = cpu_times()
    for name in names:
        values = {}
        steals = []
        for seed in seed_list(args.seeds):
            t0 = cpu_times()
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True)
            rep = json.loads(out.stdout.strip().splitlines()[-1])
            if not rep["correct"] or rep["failed"]:
                sys.exit(f"{name} seed {seed}: correct={rep['correct']} failed={rep['failed']}")
            steal = steal_share(t0, cpu_times())
            steals.append(steal)
            print(f"{name} seed {seed} (steal {100 * (steal or 0):.1f}%): " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in sorted(rep["metrics"].items())), flush=True)
            for k, v in rep["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        stats = {}
        for k, vs in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            stats[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            bound = bounds.get(k)
            flag = "!" if bound is not None and spread > bound / 3 else " "
            print(f"{flag} {name:18s} {k:28s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.4f}" + (f"  bound {bound}" if bound is not None else ""))
        result["workloads"][name] = {"metrics": stats, "steal_per_run": steals}
    result["host"]["cpu_steal"] = steal_share(capture_start, cpu_times())
    print("host:", json.dumps(result["host"]))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
