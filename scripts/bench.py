#!/usr/bin/env python3
"""One driver over one table for every results/ file and every smoke.

Run from the repository root. --build names the build tree (default:
build); the driver configures and builds there what it runs.

  regenerate [FILE...]  Rewrites results/ (or the named files in it). A
      golden <bench>.txt is the bench's stdout at default flags; a
      BENCH_*.json is distilled from its bench's --json records once they
      validate and its gates pass.
  verify [FILE...]  Rebuilds every golden and deterministic BENCH file in
      a temporary directory; fails naming each that differs from results/.
  smoke  Runs the smokes: their --json records must validate, and the
      across-threads ones must be identical at --threads 1 and 4.
  sim | host [--baseline DIR COMMIT] [--label LABEL]  Appends a point to
      results/BENCH_sim.json (the simulator microbenchmarks' cpu_time) or
      BENCH_host.json (wall time and peak RSS of HOST_COMMANDS), each
      value the min over fixed rounds. --baseline also measures DIR, a
      built tree of COMMIT (for sim, with this tree's
      bench/micro_simulator.cc), one run per round interleaved with this
      build's, and appends its point first: back-to-back runs drift 15-30%
      on a shared host. --label names this build's point; it defaults to
      the checked-out commit and is required while the tree has
      uncommitted changes. Measure on an idle machine.
"""

import argparse
import dataclasses
import difflib
import json
import os
import subprocess
import sys
import tempfile
import time

sys.dont_write_bytecode = True  # import validate_metrics without a cache
import validate_metrics  # noqa: E402

RESULTS = "results"


class RowFailed(Exception):
    pass


# --------------------------------------------------------------------
# Distillers: one per deterministic BENCH_*.json, from the bench's
# --json records to the committed summary document. They raise RowFailed
# when a gate fails; fig12, fig13, fig14 and fig15 also exit nonzero on
# their own invariants.

def distill_dist(records):
    """fig10_scaleout: one row per (topology, shards, skew, stealing)."""
    out = {"bench": "fig10_scaleout", "sweep": []}
    for rec in records:
        params = rec["params"]
        run = rec["run"]
        out["sweep"].append({
            "topology": params["topology"],
            "num_shards": params["num_shards"],
            "zipf_exponent": params["zipf_exponent"],
            "steal": params["steal"],
            "steal_events": params["steal_events"],
            "merge_seconds": params["merge_seconds"],
            "seconds": run["seconds"],
            "qps": run["qps"],
            "probe_tuples": run["probe_tuples"],
            "result_tuples": run["result_tuples"],
            "shards": [
                {k: s[k] for k in (
                    "shard", "r_tuples", "tuples_routed",
                    "tuples_stolen_out", "tuples_stolen_in", "steals_in",
                    "windows", "matches", "busy_seconds")}
                for s in rec["shards"]
            ],
            "links": rec["links"],
        })
    return out


def distill_serve(records):
    """serve_latency: the calibration point, one row per load multiplier."""
    out = {"bench": "serve_latency", "calibration": {}, "sweep": []}
    for rec in records:
        params = rec["params"]
        metrics = rec.get("metrics", {})
        if params.get("point") == "calibration":
            out["calibration"] = {
                "batch_tuples": params["batch_tuples"],
                "window_service_seconds":
                    metrics["serve.window_service_seconds"]["value"],
                "capacity_tuples_per_sec":
                    metrics["serve.capacity_tuples_per_sec"]["value"],
            }
            continue
        hist = metrics["serve.latency_seconds"]
        out["sweep"].append({
            "load_multiplier": params["load_multiplier"],
            "arrival_model": params["arrival_model"],
            "arrival_rate_rps": params["arrival_rate_rps"],
            "requests_admitted":
                metrics["serve.requests_admitted"]["value"],
            "requests_shed": metrics["serve.requests_shed"]["value"],
            "batches": metrics["serve.batches"]["value"],
            "window_grows": metrics["serve.window_grows"]["value"],
            "window_shrinks": metrics["serve.window_shrinks"]["value"],
            "final_batch_tuples":
                metrics["serve.final_batch_tuples"]["value"],
            "latency_seconds": {
                "p50": hist["p50"], "p95": hist["p95"], "p99": hist["p99"],
                "max": hist["max"], "count": hist["count"],
            },
            "achieved_tuples_per_sec":
                metrics["serve.achieved_tuples_per_sec"]["value"],
        })
    return out


def distill_plan(records):
    """fig11_adaptive: one row per (phase, planner), the regret curve."""
    out = {"bench": "fig11_adaptive", "phases": [], "summary": {}}
    for rec in records:
        params = rec["params"]
        if params.get("point") == "phase":
            planner = rec["planner"]
            out["phases"].append({
                "phase": params["phase"],
                "planner": params["planner"],
                "r_tuples": params["r_tuples"],
                "zipf_exponent": params["zipf_exponent"],
                "total_seconds": planner["total_seconds"],
                "total_matches": planner["total_matches"],
                "decisions": planner["decisions"],
                "explorations": planner["explorations"],
                "plan_usage": planner["plan_usage"],
                "batches": [
                    {k: b[k] for k in (
                        "ordinal", "plan", "predicted_seconds",
                        "charged_seconds", "explored", "matches")}
                    for b in planner["batches"]
                ],
            })
        elif params.get("point") == "summary":
            metrics = rec["metrics"]
            out["summary"] = {
                "adaptive_seconds":
                    metrics["plan.adaptive_seconds"]["value"],
                "oracle_seconds": metrics["plan.oracle_seconds"]["value"],
                "best_static_plan": params["best_static_plan"],
                "best_static_seconds":
                    metrics["plan.best_static_seconds"]["value"],
                "regret_ratio": metrics["plan.regret_ratio"]["value"],
                "statics": rec["statics"],
                "regret_curve": rec["regret_curve"],
            }
    return out


def distill_chaos(records):
    """fig12_chaos: one row per (scenario, shards, skew). Gate: no chaos
    run loses or duplicates a match vs its fault-free baseline."""
    out = {"bench": "fig12_chaos", "sweep": []}
    for rec in records:
        params = rec["params"]
        run = rec["run"]
        row = {
            "scenario": params["scenario"],
            "num_shards": params["num_shards"],
            "zipf_exponent": params["zipf_exponent"],
            "sim_makespan": params["sim_makespan"],
            "seconds": run["seconds"],
            "qps": run["qps"],
            "probe_tuples": run["probe_tuples"],
            "result_tuples": run["result_tuples"],
        }
        if params["scenario"] != "none":
            row.update({
                "fail_shard": params["fail_shard"],
                "fail_at_seconds": params["fail_at_seconds"],
                "heartbeat_timeout": params["heartbeat_timeout"],
                "matches_lost": params["matches_lost"],
                "matches_extra": params["matches_extra"],
                "failover_overhead": params["failover_overhead"],
                "robustness": rec["robustness"],
            })
            if params["matches_lost"] != 0 or params["matches_extra"] != 0:
                raise RowFailed(f"chaos run lost/duplicated matches: {row}")
        out["sweep"].append(row)
    return out


def distill_htap(records):
    """fig13_htap: one row per (mix, shards) cell. Gate: no cell drops an
    admitted request across an epoch swap or diverges from the replay
    oracle."""
    out = {"bench": "fig13_htap", "sweep": []}
    for rec in records:
        params = rec["params"]
        metrics = rec.get("metrics", {})
        hist = metrics["serve.latency_seconds"]
        row = {
            "mix": params["mix"],
            "num_shards": params["num_shards"],
            "write_ratio": params["write_ratio"],
            "ops_model": params["ops_model"],
            "ingest_rate_ops": params["ingest_rate_ops"],
            "merge_threshold": params["merge_threshold"],
            "arrival_rate_rps": params["arrival_rate_rps"],
            "requests_admitted":
                metrics["serve.requests_admitted"]["value"],
            "requests_shed": metrics["serve.requests_shed"]["value"],
            "latency_seconds": {
                "p50": hist["p50"], "p95": hist["p95"], "p99": hist["p99"],
                "max": hist["max"], "count": hist["count"],
            },
            "achieved_tuples_per_sec":
                metrics["serve.achieved_tuples_per_sec"]["value"],
            "oracle_checked_keys": params["oracle_checked_keys"],
            "oracle_mismatches": params["oracle_mismatches"],
            "zero_drops": params["zero_drops"],
        }
        if "ingest" in rec:
            row["ingest"] = rec["ingest"]
        if params["oracle_mismatches"] != 0 or not params["zero_drops"]:
            raise RowFailed("HTAP cell dropped requests or diverged from "
                            f"the oracle: {row}")
        out["sweep"].append(row)
    return out


def distill_tenant(records):
    """fig14_tenants: the scheduler x cache grid, the cache verification
    and the rogue-tenant trio. Gates: the cache buys throughput at equal
    shed with identical match sets, and fair scheduling holds the gold
    tier's p99 near its rogue-free value while FIFO degrades it."""
    out = {"bench": "fig14_tenants", "calibration": {}, "grid": [],
           "verify": {}, "rogue": [], "summary": {}}
    for rec in records:
        params = rec["params"]
        metrics = rec.get("metrics", {})
        tenants = rec.get("tenants", {})
        point = params.get("point")
        if point == "calibration":
            out["calibration"] = {
                "request_tuples": params["request_tuples"],
                "request_service_seconds":
                    metrics["serve.request_service_seconds"]["value"],
                "capacity_tuples_per_sec":
                    metrics["serve.capacity_tuples_per_sec"]["value"],
            }
            continue
        if point == "summary":
            out["summary"] = {
                "cache_qps_gain":
                    metrics["serve.cache_qps_gain"]["value"],
                "match_sets_identical":
                    metrics["serve.match_sets_identical"]["value"] == 1.0,
                "gold_p99_isolated_seconds":
                    metrics["serve.gold_p99_isolated_seconds"]["value"],
                "gold_p99_fair_rogue_seconds":
                    metrics["serve.gold_p99_fair_rogue_seconds"]["value"],
                "gold_p99_fifo_rogue_seconds":
                    metrics["serve.gold_p99_fifo_rogue_seconds"]["value"],
                "gold_p99_fair_ratio":
                    metrics["serve.gold_p99_fair_ratio"]["value"],
                "gold_p99_fifo_ratio":
                    metrics["serve.gold_p99_fifo_ratio"]["value"],
            }
            continue
        if point == "verify":
            out["verify"] = {
                "requests": params["requests"],
                "match_sets_identical":
                    metrics["serve.match_sets_identical"]["value"] == 1.0,
                "matches": metrics["serve.verify_matches"]["value"],
                "cache_hits": tenants["cache"]["hits"],
            }
            continue
        hist = metrics["serve.latency_seconds"]
        out[point].append({
            "scheduler": params["scheduler"],
            "cache_bytes": params["cache_bytes"],
            "rogue_extra": params["rogue_extra"],
            "arrival_rate_rps": params["arrival_rate_rps"],
            "requests_admitted":
                metrics["serve.requests_admitted"]["value"],
            "requests_shed": metrics["serve.requests_shed"]["value"],
            "achieved_requests_per_sec":
                metrics["serve.achieved_requests_per_sec"]["value"],
            "latency_seconds": {
                "p50": hist["p50"], "p99": hist["p99"],
                "count": hist["count"],
            },
            "tiers": [
                {"tier": t["tier"], "admitted": t["admitted"],
                 "shed_rate_limit": t["shed_rate_limit"],
                 "p99": t["latency"]["p99"]}
                for t in tenants["tiers"]
            ],
            "cache_hits": tenants["cache"]["hits"],
            "cache_lookups": tenants["cache"]["lookups"],
        })

    s = out["summary"]
    fails = []
    if not s["match_sets_identical"] or not out["verify"]["match_sets_identical"]:
        fails.append("cached match sets differ from the uncached run's")
    if out["verify"]["cache_hits"] == 0:
        fails.append("verification cell never hit the cache")
    if s["cache_qps_gain"] <= 1.0:
        fails.append(f"cache bought no throughput "
                     f"(gain {s['cache_qps_gain']:.3f}x)")
    grid = {(c["scheduler"], c["cache_bytes"] > 0): c for c in out["grid"]}
    if grid[("fair", False)]["requests_shed"] != \
            grid[("fair", True)]["requests_shed"]:
        fails.append("cache-on and cache-off shed rates differ: the QPS "
                     "comparison is not apples to apples")
    if s["gold_p99_fair_ratio"] > 1.2:
        fails.append(f"fair scheduling failed to protect the gold tier "
                     f"(p99 ratio {s['gold_p99_fair_ratio']:.3f} > 1.2)")
    if s["gold_p99_fifo_ratio"] <= 2.0:
        fails.append(f"FIFO was expected to degrade under the flood "
                     f"(p99 ratio {s['gold_p99_fifo_ratio']:.3f} <= 2.0)")
    if fails:
        raise RowFailed("; ".join(fails))
    return out


def distill_cluster(records):
    """fig15_multinode: one row per (network, nodes, skew, scenario)."""
    out = {"bench": "fig15_multinode", "sweep": []}
    for rec in records:
        params = rec["params"]
        run = rec["run"]
        row = {
            "network": params["network"],
            "num_nodes": params["num_nodes"],
            "gpus_per_node": params["gpus_per_node"],
            "total_shards": params["total_shards"],
            "zipf_exponent": params["zipf_exponent"],
            "scenario": params["scenario"],
            "matches_lost": params["matches_lost"],
            "matches_extra": params["matches_extra"],
            "overhead": params["overhead"],
            "rebalance_events": params["rebalance_events"],
            "moved_r_tuples": params["moved_r_tuples"],
            "migration_seconds": params["migration_seconds"],
            "seconds": run["seconds"],
            "qps": run["qps"],
            "probe_tuples": run["probe_tuples"],
            "result_tuples": run["result_tuples"],
            "nodes": [
                {k: n[k] for k in (
                    "node", "origin", "alive", "drained", "shards",
                    "r_tuples", "tuples_routed", "tuples_rerouted",
                    "matches", "steal_events", "busy_seconds")}
                for n in rec["nodes"]
            ],
            "network_links": rec["network_links"],
        }
        if "robustness" in rec:
            row["failovers"] = rec["robustness"].get("failovers", 0)
        out["sweep"].append(row)
    return out


# --------------------------------------------------------------------
# The table, one row per output: OUTPUTS (goldens and deterministic BENCH
# files), SMOKES, and the trajectory rows in TRAJECTORIES below.

@dataclasses.dataclass
class Row:
    name: str             # results/ file name, or the smoke's name
    argv: str             # bench binary under <build>/bench, then flags
    distill: object = None  # records -> BENCH document (gates checked)
    across_threads: bool = False  # smoke: --threads 1 and 4 must agree


# Each golden is its bench's stdout at default flags.
GOLDENS = [
    "ablation_best_effort", "ablation_btree_node", "ablation_fault_recovery",
    "ablation_filter_divergence", "ablation_overlap", "ablation_page_size",
    "ablation_partition_bits", "ablation_sorted_keys", "ablation_subwarp",
    "ablation_tlb_model", "disc_transfer_volume", "ext_gh200",
    "fig3_inlj_naive", "fig4_tlb_misses", "fig5_inlj_partitioned",
    "fig6_tlb_reduction", "fig7_window_size", "fig8_skew", "fig9_hardware",
    "table1_interconnects",
]

OUTPUTS = [Row(f"{bench}.txt", bench) for bench in GOLDENS] + [
    Row("BENCH_dist.json", "fig10_scaleout", distill_dist),
    Row("BENCH_plan.json", "fig11_adaptive", distill_plan),
    Row("BENCH_chaos.json", "fig12_chaos", distill_chaos),
    Row("BENCH_htap.json", "fig13_htap", distill_htap),
    Row("BENCH_tenant.json", "fig14_tenants", distill_tenant),
    Row("BENCH_cluster.json", "fig15_multinode", distill_cluster),
    Row("BENCH_serve.json", "serve_latency", distill_serve),
]

# Small end-to-end runs whose records must validate. fig12-fig15 also
# exit nonzero on their own invariants (a lost match, a dropped request,
# a cached match set unlike the uncached one, a 1-node cluster unlike
# dist).
SMOKES = [
    Row("fault", "ablation_fault_recovery"),
    Row("serve", "serve_latency --requests 2000"),
    Row("dist", "fig10_scaleout --s_sample 65536", across_threads=True),
    Row("plan_static", "serve_latency --requests 500 --planner static"),
    Row("plan_adaptive", "serve_latency --requests 500 --planner adaptive"),
    Row("plan_oracle", "serve_latency --requests 500 --planner oracle"),
    Row("plan_fig11",
        "fig11_adaptive --batches_per_phase 2 --batch_tuples 8192"),
    Row("chaos", "fig12_chaos --s_sample 65536", across_threads=True),
    Row("retry", "serve_latency --requests 500 --retry-cap 3 "
        "--request-deadline-ms 5 --hedge-after 1"),
    Row("htap", "fig13_htap --requests 500 --s_sample 65536 "
        "--merge-threshold 1024", across_threads=True),
    Row("tenant", "fig14_tenants --requests 2000 --verify-requests 500",
        across_threads=True),
    Row("cluster", "fig15_multinode --s_sample 65536", across_threads=True),
]

# Trajectory rows: host-clock points, appended rather than regenerated.
SIM_ROUNDS = 5
SIM_FILTER = ("BM_CacheAccess|BM_WarpGather|BM_TouchLine|BM_TlbLookup|"
              "BM_GatherSequential|BM_WindowFlush")
HOST_ROUNDS = 3
# Run from the build directory: the canonical single-thread figure
# sweeps, the serving sweep, the cluster smoke and the test suite.
HOST_COMMANDS = [
    "bench/fig3_inlj_naive --threads 1",
    "bench/fig5_inlj_partitioned --threads 1",
    "bench/serve_latency --requests 4000",
    "bench/fig15_multinode --threads 1 --s_sample 65536",
    "ctest -j4",
]


# --------------------------------------------------------------------
# Running rows: each step raises RowFailed with the reason its row fails.

def build(build_dir, targets=None):
    subprocess.run(["cmake", "-B", build_dir, "-S", "."], check=True,
                   stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", build_dir, "-j"] +
                   (["--target"] + sorted(set(targets)) if targets else []),
                   check=True)


def run_bench(build_dir, row, extra=(), stdout=subprocess.DEVNULL):
    argv = row.argv.split() + list(extra)
    argv[0] = os.path.join(build_dir, "bench", argv[0])
    done = subprocess.run(argv, stdout=stdout)
    if done.returncode != 0:
        raise RowFailed(f"{' '.join(argv)} exited {done.returncode}")
    return done.stdout


def read_records(path):
    if validate_metrics.main([None, path]) != 0:
        raise RowFailed(f"{path} failed schema validation")
    with open(path) as f:
        return [json.loads(line) for line in f]


def same_bytes(expected, actual, reason):
    with open(expected, "rb") as a, open(actual, "rb") as b:
        old, new = a.read(), b.read()
    if old != new:
        sys.stderr.writelines(list(difflib.unified_diff(
            old.decode(errors="replace").splitlines(True),
            new.decode(errors="replace").splitlines(True),
            expected, actual))[:40])
        raise RowFailed(reason)


def produce(build_dir, row, tmp, out_dir=RESULTS):
    """Writes the row's file into out_dir; nothing when the row fails."""
    if row.distill is None:
        data = run_bench(build_dir, row, stdout=subprocess.PIPE)
    else:
        records = os.path.join(tmp, row.name + ".metrics.json")
        run_bench(build_dir, row, ["--json", records])
        doc = row.distill(read_records(records))
        data = (json.dumps(doc, indent=2) + "\n").encode()
    with open(os.path.join(out_dir, row.name), "wb") as f:
        f.write(data)


def verify(build_dir, row, tmp):
    produce(build_dir, row, tmp, out_dir=tmp)
    same_bytes(os.path.join(RESULTS, row.name), os.path.join(tmp, row.name),
               f"differs from {RESULTS}/{row.name}")


def smoke(build_dir, row, tmp):
    first = os.path.join(tmp, row.name + ".1.json")
    run_bench(build_dir, row,
              (["--threads", "1"] if row.across_threads else []) +
              ["--json", first])
    read_records(first)
    if row.across_threads:
        second = os.path.join(tmp, row.name + ".4.json")
        run_bench(build_dir, row, ["--threads", "4", "--json", second])
        same_bytes(first, second, "records differ at --threads 1 and 4")


# --------------------------------------------------------------------
# Trajectory rows: measure(build dir, tmp) -> {section: {case: value}}.

def measure_sim(build_dir, tmp):
    out = os.path.join(tmp, "sim.metrics.json")
    subprocess.run([os.path.join(build_dir, "bench", "micro_simulator"),
                    f"--benchmark_filter={SIM_FILTER}",
                    "--benchmark_min_time=1.0", "--json", out],
                   check=True, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)
    cpu = {}
    for rec in read_records(out):
        t = rec["metrics"]["cpu_time_per_iter"]
        if t["unit"] == "ns":
            cpu[rec["params"]["case"]] = t["value"]
    return {"cpu_time_ns": cpu}


def measure_host(build_dir, tmp):
    wall, rss = {}, {}
    for command in HOST_COMMANDS:
        start = time.monotonic()
        child = subprocess.Popen(command.split(), cwd=build_dir,
                                 stdout=subprocess.DEVNULL)
        # ru_maxrss covers the child and the descendants it reaped: the
        # largest single process, ctest's tests included.
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        if child.returncode != 0:
            raise RowFailed(f"{command} in {build_dir} exited "
                            f"{child.returncode}")
        wall[command] = time.monotonic() - start
        rss[command] = usage.ru_maxrss / 1024
    return {"wall_s": wall, "peak_rss_mib": rss}


# command: (results/ file, rounds, method, measure, build targets or None
# for all).
TRAJECTORIES = {
    "sim": ("BENCH_sim.json", SIM_ROUNDS,
            f"min cpu_time over {SIM_ROUNDS} runs (min_time 1.0 s)",
            measure_sim, ["micro_simulator"]),
    "host": ("BENCH_host.json", HOST_ROUNDS,
             f"min wall time and peak RSS over {HOST_ROUNDS} rounds",
             measure_host, None),
}


def append_trajectory(command, build_dir, baseline, label):
    name, rounds, method, measure, targets = TRAJECTORIES[command]
    if label is None:
        if subprocess.run(["git", "diff", "--quiet", "HEAD"]).returncode:
            sys.exit("bench.py: uncommitted changes; name the build point "
                     "with --label")
        label = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                               check=True, capture_output=True,
                               text=True).stdout.strip()
    build(build_dir, targets)
    # (commit, build dir) per point; every round measures every point.
    points = [(baseline[1], baseline[0])] if baseline else []
    points.append((label, build_dir))
    if baseline:
        method += ", interleaved with the other point's binary"
    taken = [[] for _ in points]
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(rounds):
            for (_, directory), samples in zip(points, taken):
                samples.append(measure(directory, tmp))
    path = os.path.join(RESULTS, name)
    with open(path) as f:
        merged = json.load(f)
    for (commit, _), samples in zip(points, taken):
        point = {"commit": commit, "method": method,
                 "num_cpus": len(os.sched_getaffinity(0))}
        for section, cases in samples[0].items():
            point[section] = {
                case: round(min(s[section][case] for s in samples), 2)
                for case in cases}
        merged["trajectory"].append(point)
    with open(path, "w") as f:
        json.dump(merged, f, indent=2)
        f.write("\n")
    print(f"{path}: appended {len(points)} point(s)")


# --------------------------------------------------------------------

def require(names):
    """A missing committed file is one clear error before anything builds."""
    missing = [name for name in names
               if not os.path.isfile(os.path.join(RESULTS, name))]
    if missing:
        sys.exit("bench.py: committed file(s) missing under results/: " +
                 ", ".join(missing))


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=[
        "regenerate", "verify", "smoke", *TRAJECTORIES])
    parser.add_argument("files", nargs="*", metavar="FILE")
    parser.add_argument("--build", default="build", metavar="DIR")
    parser.add_argument("--baseline", nargs=2, metavar=("DIR", "COMMIT"))
    parser.add_argument("--label")
    args = parser.parse_intermixed_args()
    if args.files and args.command not in ("regenerate", "verify"):
        parser.error("only regenerate and verify take FILE arguments")
    if (args.baseline or args.label) and args.command not in TRAJECTORIES:
        parser.error("--baseline and --label apply to sim and host only")

    if args.command in TRAJECTORIES:
        require([TRAJECTORIES[args.command][0]])
        try:
            append_trajectory(args.command, args.build, args.baseline,
                              args.label)
        except RowFailed as e:
            sys.exit(f"bench.py {args.command}: {e}")
        return 0

    rows = SMOKES if args.command == "smoke" else OUTPUTS
    if args.files:
        by_name = {row.name: row for row in rows}
        unknown = [f for f in args.files if f not in by_name]
        if unknown:
            parser.error(f"no row for {', '.join(unknown)}")
        rows = [by_name[f] for f in args.files]
    if args.command == "verify":
        require([row.name for row in rows])
    build(args.build, [row.argv.split()[0] for row in rows])

    step = {"regenerate": produce, "verify": verify, "smoke": smoke}
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for row in rows:
            print(f"=== {row.name} ===", flush=True)
            try:
                step[args.command](args.build, row, tmp)
            except RowFailed as e:
                failures.append(f"{row.name}: {e}")
                print(f"FAIL {row.name}: {e}", file=sys.stderr, flush=True)
    if failures:
        print(f"bench.py {args.command}: {len(failures)} of {len(rows)} "
              "row(s) failed:\n  " + "\n  ".join(failures), file=sys.stderr)
        return 1
    print(f"bench.py {args.command}: {len(rows)} row(s) passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
