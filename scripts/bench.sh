#!/usr/bin/env bash
# Regenerates BENCH_sim.json: kernel micro-benchmarks (ns/op, allocs/op),
# per-exhibit regeneration cost, and windbench serial-vs-parallel wall
# clock. Run from anywhere in the repo:
#
#   scripts/bench.sh [--smoke] [output.json]
#
# --smoke shrinks every run (and skips the per-exhibit benchmarks) so the
# whole script finishes in CI minutes while still writing a JSON with the
# full schema — the bench-sanity job runs it and checks the fields. Smoke
# numbers are not representative; the default output then becomes
# BENCH_sim.smoke.json so the committed capture is never clobbered.
#
# The committed BENCH_sim.json was produced by this script; the host's
# core count is recorded alongside the numbers, since the parallel
# speedup is bounded by it (on a 1-core host serial == parallel).
set -euo pipefail
cd "$(dirname "$0")/.."

smoke=0
if [[ "${1:-}" == "--smoke" ]]; then
    smoke=1
    shift
fi
if [[ $smoke -eq 1 ]]; then
    out=${1:-BENCH_sim.smoke.json}
else
    out=${1:-BENCH_sim.json}
fi
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
micro_txt=$work/micro.txt
exhibit_txt=$work/exhibit.txt
mega_txt=$work/mega.txt
fleet_txt=$work/fleet.txt
scale_txt=$work/scale.txt

# Smoke sizes: enough requests for every parser below to find rows,
# small enough for CI. The full capture uses the exhibits' defaults.
benchtime=1s
all_n=300
mega_args=(ext-mega)
fleet_args=(ext-fleet-chaos)
scale_args=(ext-fleet-scale)
if [[ $smoke -eq 1 ]]; then
    benchtime=100x
    all_n=120
    mega_args=(-n 20000 ext-mega)
    fleet_args=(-n 4000 -fleet 8 ext-fleet-chaos)
    scale_args=(-n 20000 ext-fleet-scale)
fi

echo "== micro-benchmarks (sim, metrics, perf, stats, engine) ==" >&2
go test -run '^$' -bench 'SimulatorScheduleFire|Summarize|OpenIDs|IterTime|ServeSteady|P2Add|PercentilesOf|EnginePass' \
    -benchmem -benchtime "$benchtime" ./internal/sim ./internal/metrics ./internal/perf ./internal/stats ./internal/engine | tee "$micro_txt" >&2

if [[ $smoke -eq 1 ]]; then
    echo "== exhibit benchmarks skipped (--smoke) ==" >&2
    : > "$exhibit_txt"
else
    echo "== exhibit benchmarks (one full regeneration each) ==" >&2
    go test -run '^$' -bench . -benchmem -benchtime 2x . | tee "$exhibit_txt" >&2
fi

echo "== windbench wall clock: serial vs parallel ==" >&2
go build -o "$work/windbench" ./cmd/windbench
t0=$(date +%s.%N)
"$work/windbench" -n "$all_n" -parallel 1 all > "$work/serial.txt"
t1=$(date +%s.%N)
"$work/windbench" -n "$all_n" all > "$work/parallel.txt"
t2=$(date +%s.%N)
cmp "$work/serial.txt" "$work/parallel.txt" \
    || { echo "bench.sh: parallel output differs from serial" >&2; exit 1; }
serial=$(echo "$t1 $t0" | awk '{printf "%.3f", $1 - $2}')
parallel=$(echo "$t2 $t1" | awk '{printf "%.3f", $1 - $2}')
echo "serial ${serial}s  parallel ${parallel}s  ($(nproc) cores)" >&2

echo "== ext-mega: million-request streaming horizon ==" >&2
"$work/windbench" "${mega_args[@]}" | tee "$mega_txt" >&2

echo "== ext-fleet-chaos: 16-replica fleet under seeded chaos ==" >&2
t5=$(date +%s.%N)
"$work/windbench" "${fleet_args[@]}" | tee "$fleet_txt" >&2
t6=$(date +%s.%N)
fleet_wall=$(echo "$t6 $t5" | awk '{printf "%.3f", $1 - $2}')
echo "ext-fleet-chaos wall clock ${fleet_wall}s" >&2

echo "== ext-fleet-scale: 64-replica fleet across shard counts ==" >&2
"$work/windbench" "${scale_args[@]}" | tee "$scale_txt" >&2
grep -q "byte-identical virtual-time results" "$scale_txt" \
    || { echo "bench.sh: sharded fleet results diverged" >&2; exit 1; }

# Physical core count from the host, not Python's os.cpu_count(): under a
# container cpuset/affinity mask the latter reports the mask width (often
# 1), which misdocuments the machine the numbers came from. gomaxprocs is
# what the Go scheduler actually got — the bound on any within-run
# (shards) or across-run (-parallel) speedup measured above.
host_cores=$(nproc --all 2>/dev/null || getconf _NPROCESSORS_CONF)
gomaxprocs=${GOMAXPROCS:-$(nproc)}

MICRO="$micro_txt" EXHIBIT="$exhibit_txt" MEGA="$mega_txt" FLEET="$fleet_txt" \
SCALE="$scale_txt" \
FLEET_WALL="$fleet_wall" SERIAL="$serial" PARALLEL="$parallel" OUT="$out" \
HOST_CORES="$host_cores" GOMAXPROCS_USED="$gomaxprocs" SMOKE="$smoke" \
python3 - <<'EOF'
import json, os, re

def parse(path):
    rows = []
    for line in open(path):
        m = re.match(r'^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op'
                     r'(?:\s+([\d.]+) B/op\s+(\d+) allocs/op)?', line)
        if not m:
            continue
        row = {"name": m.group(1), "iterations": int(m.group(2)),
               "ns_per_op": float(m.group(3))}
        if m.group(5) is not None:
            row["bytes_per_op"] = float(m.group(4))
            row["allocs_per_op"] = int(m.group(5))
        rows.append(row)
    return rows

def parse_mega(path):
    rows = []
    for line in open(path):
        m = re.match(r'^(\S+)\s+(streaming|exact)\s+(\d+)\s+([\d.]+)\s+([\d.]+)'
                     r'\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)%', line)
        if not m:
            continue
        rows.append({
            "system": m.group(1), "mode": m.group(2),
            "requests": int(m.group(3)),
            "sim_seconds": float(m.group(4)),
            "wall_seconds": float(m.group(5)),
            "sim_req_per_sec": float(m.group(6)),
            "peak_heap_mb": float(m.group(7)),
            "slo_attainment": float(m.group(8)) / 100,
        })
    return rows

def parse_fleet(path):
    rows = []
    for line in open(path):
        m = re.match(r'^(round-robin|least-loaded|weighted)\s+(on|off)\s+(\d+)'
                     r'\s+(\d+)\s+(\d+)\s+([\d.]+)%\s+([\d.]+)\s+(\d+)\s+(\d+)'
                     r'\s+(\d+)\s+(\S+)\s+([\d.]+)', line)
        if not m:
            continue
        rows.append({
            "policy": m.group(1), "chaos": m.group(2) == "on",
            "completed": int(m.group(3)),
            "aborted": int(m.group(4)), "rejected": int(m.group(5)),
            "slo_attainment": float(m.group(6)) / 100,
            "goodput_rps": float(m.group(7)),
            "failovers": int(m.group(8)), "recovered": int(m.group(9)),
            "wasted_tokens": int(m.group(10)),
            "recovery_s": m.group(11), "brownout_s": float(m.group(12)),
        })
    return rows

def parse_scale(path):
    rows = []
    for line in open(path):
        m = re.match(r'^(\d+)\s+([\d.]+)\s+(\d+)\s+([\d.]+)x\s+(\d+)\s+(\d+)'
                     r'\s+([0-9a-f]+)\s+(\d+)\s+(\d+)\s*$', line)
        if not m:
            continue
        rows.append({
            "shards": int(m.group(1)),
            "wall_seconds": float(m.group(2)),
            "sim_req_per_sec": int(m.group(3)),
            "speedup": float(m.group(4)),
            "windows": int(m.group(5)),
            "crossings": int(m.group(6)),
            "result_digest": m.group(7),
            "completed": int(m.group(8)),
            "unfinished": int(m.group(9)),
        })
    return rows

micro = parse(os.environ["MICRO"])

serial = float(os.environ["SERIAL"])
parallel = float(os.environ["PARALLEL"])
gomaxprocs = int(os.environ["GOMAXPROCS_USED"])
scale_rows = parse_scale(os.environ["SCALE"])
scale_note = (
    "wall_seconds/sim_req_per_sec/speedup are host measurements; "
    "result_digest fingerprints the virtual-time Result and is identical "
    "across rows (sharded == sequential, byte for byte). Speedup is "
    "bounded by min(shards, gomaxprocs). ")
if gomaxprocs <= 1:
    scale_note += (
        f"This capture ran with gomaxprocs={gomaxprocs}: the shard workers "
        "serialize onto one core, so the barrier and cross-shard message "
        "traffic show as pure overhead (speedup < 1) and the >=4x-at-8-"
        "shards / 1M+ sim req/s targets are unreachable here by "
        "construction — regenerate on a multicore host to measure real "
        "scaling.")
else:
    scale_note += (
        f"This capture ran with gomaxprocs={gomaxprocs}; compare the "
        "8-shard row against 1-shard for the within-run scaling factor.")

doc = {
    "description": "Simulation-kernel benchmarks; regenerate with scripts/bench.sh",
    "smoke": os.environ["SMOKE"] == "1",
    "host_cores": int(os.environ["HOST_CORES"]),
    "gomaxprocs": gomaxprocs,
    "micro": micro,
    "ext_mega": {
        "args": "ext-mega (1,000,000 requests, streaming source + recorder)",
        "rows": parse_mega(os.environ["MEGA"]),
        "note": "peak_heap_mb is the high-water HeapAlloc sampled every 5ms; "
                "streaming rows hold O(in-flight + retained records) "
                "regardless of horizon length",
    },
    "ext_fleet_chaos": {
        "args": "ext-fleet-chaos (16 replicas, 100,000 requests, "
                "3 policies x {clean, chaos})",
        "wall_seconds": float(os.environ["FLEET_WALL"]),
        "requests_per_wall_second": round(
            sum(r["completed"] + r["aborted"] + r["rejected"]
                for r in parse_fleet(os.environ["FLEET"]))
            / float(os.environ["FLEET_WALL"]), 1),
        "rows": parse_fleet(os.environ["FLEET"]),
        "note": "goodput/SLO/recovery are virtual-time quantities and "
                "byte-identical per seed; requests_per_wall_second is the "
                "simulator's sustained throughput across all six runs",
    },
    "ext_fleet_scale": {
        "args": "ext-fleet-scale (64 replicas, 1,000,000 streamed requests, "
                "least-loaded, shards in {1, 4, 8, NumCPU})",
        "rows": scale_rows,
        "note": scale_note,
    },
    "exhibits": parse(os.environ["EXHIBIT"]),
    "windbench_all": {
        "args": "-n 300 all",
        "serial_seconds": serial,
        "parallel_seconds": parallel,
        "speedup": round(serial / parallel, 3) if parallel else None,
        "note": "speedup is bounded by gomaxprocs; on a 1-core host the "
                "pool degenerates to the serial loop and speedup ~= 1",
    },
}
with open(os.environ["OUT"], "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f'wrote {os.environ["OUT"]}')
EOF
