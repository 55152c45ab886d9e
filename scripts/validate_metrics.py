#!/usr/bin/env python3
"""Validates JSON Lines metric emissions (bench binaries' --json output)
against the schema_version 1 record layout (src/obs/emitter.h).

Usage: scripts/validate_metrics.py FILE [FILE...]
Exits non-zero and prints one line per violation if any record is
malformed. Standard library only.
"""
import json
import sys

SCHEMA_VERSION = 1

COUNTER_FIELDS = [
    "host_random_read_bytes", "host_seq_read_bytes", "host_write_bytes",
    "translation_requests", "tlb_hits", "hbm_read_bytes", "hbm_write_bytes",
    "l1_hits", "l2_hits", "l2_misses", "warp_steps", "memory_transactions",
    "kernel_launches", "serial_dependent_loads", "faults_injected",
    "translation_timeouts", "remote_read_errors", "degradation_episodes",
    "alloc_faults", "fault_retries", "fault_backoff_nanos",
    "degraded_host_bytes",
]

RUN_FIELDS = {
    "label": str, "seconds": (int, float), "qps": (int, float),
    "probe_tuples": int, "result_tuples": int,
    "translations_per_key": (int, float), "spilled_tuples": int,
    "spill_buckets": int, "degraded_windows": int, "fallback_windows": int,
    "result_buffer_on_host": bool,
}

PHASE_FIELDS = {
    "name": str, "seconds": (int, float), "enter_count": int,
    "observed_transactions": int, "observed_stream_bytes": int,
}

TRACE_REGION_FIELDS = [
    "transactions", "l1_hits", "l2_hits", "memory_transactions",
    "stream_bytes", "writes",
]

METRIC_KINDS = {"scalar", "counter", "histogram"}

HISTOGRAM_FIELDS = ["sum", "min", "max", "p50", "p95", "p99"]


def err(errors, where, msg):
    errors.append(f"{where}: {msg}")


def check_uint(errors, where, obj, field):
    v = obj.get(field)
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        err(errors, where, f"{field!r} must be a non-negative integer, "
            f"got {v!r}")


def check_counters(errors, where, counters):
    if not isinstance(counters, dict):
        err(errors, where, "counters must be an object")
        return
    for field in COUNTER_FIELDS:
        if field not in counters:
            err(errors, where, f"counters missing {field!r}")
        else:
            check_uint(errors, where, counters, field)
    for extra in set(counters) - set(COUNTER_FIELDS):
        err(errors, where, f"counters has unknown field {extra!r}")


def check_typed(errors, where, obj, spec):
    for field, types in spec.items():
        v = obj.get(field)
        if field not in obj:
            err(errors, where, f"missing {field!r}")
        elif types is not bool and isinstance(v, bool):
            err(errors, where, f"{field!r} must be {types}, got bool")
        elif not isinstance(v, types):
            err(errors, where, f"{field!r} must be {types}, got {type(v)}")


def check_platform(errors, where, platform):
    if not isinstance(platform, dict):
        err(errors, where, "platform must be an object")
        return
    if not isinstance(platform.get("name"), str):
        err(errors, where, "platform.name must be a string")
    for section, fields in (
        ("gpu", ["num_sms", "clock_hz", "l1_size", "l2_size",
                 "cacheline_bytes", "hbm_bandwidth", "hbm_capacity",
                 "tlb_coverage", "warp_step_throughput"]),
        ("interconnect", ["peak_bandwidth", "seq_bandwidth",
                          "random_bandwidth", "latency",
                          "translation_latency",
                          "translation_concurrency"]),
    ):
        sub = platform.get(section)
        if not isinstance(sub, dict):
            err(errors, where, f"platform.{section} must be an object")
            continue
        if not isinstance(sub.get("name"), str):
            err(errors, where, f"platform.{section}.name must be a string")
        for field in fields:
            v = sub.get(field)
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                err(errors, where,
                    f"platform.{section}.{field} must be a number, "
                    f"got {v!r}")


def check_metrics(errors, where, metrics):
    if not isinstance(metrics, dict):
        err(errors, where, "metrics must be an object")
        return
    for name, m in metrics.items():
        w = f"{where} metric {name!r}"
        if not isinstance(m, dict):
            err(errors, w, "must be an object")
            continue
        kind = m.get("kind")
        if kind not in METRIC_KINDS:
            err(errors, w, f"kind must be one of {sorted(METRIC_KINDS)}, "
                f"got {kind!r}")
            continue
        if not isinstance(m.get("unit"), str):
            err(errors, w, "unit must be a string")
        if kind == "counter":
            check_uint(errors, w, m, "value")
        elif kind == "histogram":
            check_uint(errors, w, m, "count")
            for field in HISTOGRAM_FIELDS:
                v = m.get(field)
                if not isinstance(v, (int, float)) or isinstance(v, bool):
                    err(errors, w, f"{field} must be a number, got {v!r}")
        else:
            v = m.get("value")
            if v is not None and (not isinstance(v, (int, float))
                                  or isinstance(v, bool)):
                err(errors, w, f"value must be a number or null, got {v!r}")


SHARD_FIELDS = {
    "shard": int, "r_tuples": int, "tuples_routed": int,
    "tuples_stolen_out": int, "tuples_stolen_in": int, "steals_in": int,
    "windows": int, "matches": int, "busy_seconds": (int, float),
}

LINK_FIELDS = {
    "name": str, "bytes": int, "utilization": (int, float),
}


def check_shards(errors, where, shards):
    if not isinstance(shards, list) or not shards:
        err(errors, where, "shards must be a non-empty array")
        return
    seen_ids = set()
    for i, shard in enumerate(shards):
        w = f"{where} shard[{i}]"
        if not isinstance(shard, dict):
            err(errors, w, "must be an object")
            continue
        check_typed(errors, w, shard, SHARD_FIELDS)
        sid = shard.get("shard")
        if isinstance(sid, int) and not isinstance(sid, bool):
            if sid in seen_ids:
                err(errors, w, f"duplicate shard id {sid}")
            seen_ids.add(sid)
        check_counters(errors, w, shard.get("counters", {}))
        if "phases" in shard and not isinstance(shard["phases"], list):
            err(errors, w, "phases must be an array")


def check_links(errors, where, links):
    if not isinstance(links, list) or not links:
        err(errors, where, "links must be a non-empty array")
        return
    for i, link in enumerate(links):
        w = f"{where} link[{i}]"
        if not isinstance(link, dict):
            err(errors, w, "must be an object")
            continue
        check_typed(errors, w, link, LINK_FIELDS)
        util = link.get("utilization")
        if isinstance(util, (int, float)) and not isinstance(util, bool) \
                and util < 0:
            err(errors, w, f"utilization must be >= 0, got {util!r}")


NODE_FIELDS = {
    "node": int, "origin": bool, "alive": bool, "drained": bool,
    "shards": int, "r_tuples": int, "tuples_routed": int,
    "tuples_rerouted": int, "matches": int, "steal_events": int,
    "busy_seconds": (int, float),
}

NETWORK_LINK_FIELDS = {
    "name": str, "bytes": int, "utilization": (int, float),
}


def check_nodes(errors, where, nodes, params):
    if not isinstance(nodes, list) or not nodes:
        err(errors, where, "nodes must be a non-empty array")
        return
    seen_ids = set()
    shard_total = 0
    for i, node in enumerate(nodes):
        w = f"{where} node[{i}]"
        if not isinstance(node, dict):
            err(errors, w, "must be an object")
            continue
        check_typed(errors, w, node, NODE_FIELDS)
        nid = node.get("node")
        if isinstance(nid, int) and not isinstance(nid, bool):
            if nid in seen_ids:
                err(errors, w, f"duplicate node id {nid}")
            seen_ids.add(nid)
        shards = node.get("shards")
        if isinstance(shards, int) and not isinstance(shards, bool):
            if shards < 0:
                err(errors, w, f"shards must be >= 0, got {shards!r}")
            shard_total += max(shards, 0)
        if "phases" in node and not isinstance(node["phases"], list):
            err(errors, w, "phases must be an array")
    total = params.get("total_shards") if isinstance(params, dict) else None
    if isinstance(total, int) and not isinstance(total, bool) \
            and shard_total != total:
        err(errors, where, f"per-node shard counts sum to {shard_total}, "
            f"but params.total_shards is {total}")


def check_network_links(errors, where, links):
    if not isinstance(links, list) or not links:
        err(errors, where, "network_links must be a non-empty array")
        return
    for i, link in enumerate(links):
        w = f"{where} network_link[{i}]"
        if not isinstance(link, dict):
            err(errors, w, "must be an object")
            continue
        check_typed(errors, w, link, NETWORK_LINK_FIELDS)
        util = link.get("utilization")
        if isinstance(util, (int, float)) and not isinstance(util, bool) \
                and not 0 <= util <= 1:
            err(errors, w, f"utilization must be in [0, 1], got {util!r}")


PLANNER_FIELDS = {
    "mode": str, "decisions": int, "explorations": int,
    "residual_observations": int, "total_seconds": (int, float),
    "total_matches": int,
}

PLANNER_BATCH_FIELDS = {
    "ordinal": int, "begin": int, "count": int, "plan": str,
    "predicted_seconds": (int, float), "charged_seconds": (int, float),
    "explored": bool, "matches": int,
}

PLANNER_FEATURE_FIELDS = {
    "skew": (int, float), "selectivity": (int, float),
    "r_tlb_ratio": (int, float), "link_utilization": (int, float),
    "bucket": int,
}

PLAN_SECONDS_FIELDS = {"plan": str, "seconds": (int, float)}

REGRET_POINT_FIELDS = {
    "ordinal": int, "phase": str, "adaptive_seconds": (int, float),
    "oracle_seconds": (int, float), "cum_adaptive_seconds": (int, float),
    "cum_oracle_seconds": (int, float), "regret_ratio": (int, float),
}

PLANNER_MODES = {"static", "adaptive", "oracle"}


def check_plan_seconds(errors, where, items, what):
    if not isinstance(items, list) or not items:
        err(errors, where, f"{what} must be a non-empty array")
        return
    for i, item in enumerate(items):
        w = f"{where} {what}[{i}]"
        if not isinstance(item, dict):
            err(errors, w, "must be an object")
            continue
        check_typed(errors, w, item, PLAN_SECONDS_FIELDS)


def check_planner(errors, where, planner):
    """Routed-backend section (src/plan/metrics.cc PlannerJson)."""
    if not isinstance(planner, dict):
        err(errors, where, "planner must be an object")
        return
    check_typed(errors, where, planner, PLANNER_FIELDS)
    if planner.get("mode") not in PLANNER_MODES:
        err(errors, where, f"planner.mode must be one of "
            f"{sorted(PLANNER_MODES)}, got {planner.get('mode')!r}")
    check_plan_seconds(errors, where, planner.get("plan_usage"),
                       "plan_usage")
    usage = planner.get("plan_usage")
    usage_batches = 0
    usage_plans = set()
    if isinstance(usage, list):
        for entry in usage:
            if isinstance(entry, dict):
                if isinstance(entry.get("batches"), int):
                    usage_batches += entry["batches"]
                usage_plans.add(entry.get("plan"))
    batches = planner.get("batches")
    if not isinstance(batches, list) or not batches:
        err(errors, where, "planner.batches must be a non-empty array")
        return
    if usage_batches != len(batches):
        err(errors, where,
            f"plan_usage batches sum to {usage_batches} but "
            f"{len(batches)} batches were routed")
    for i, batch in enumerate(batches):
        w = f"{where} planner batch[{i}]"
        if not isinstance(batch, dict):
            err(errors, w, "must be an object")
            continue
        check_typed(errors, w, batch, PLANNER_BATCH_FIELDS)
        if batch.get("plan") not in usage_plans:
            err(errors, w, f"plan {batch.get('plan')!r} missing from "
                "plan_usage")
        features = batch.get("features")
        if not isinstance(features, dict):
            err(errors, w, "features must be an object")
        else:
            check_typed(errors, f"{w} features", features,
                        PLANNER_FEATURE_FIELDS)
        if "candidates" in batch:
            check_plan_seconds(errors, w, batch["candidates"],
                               "candidates")
        elif planner.get("mode") == "oracle":
            err(errors, w, "oracle batches must carry 'candidates'")


def check_regret_curve(errors, where, curve):
    if not isinstance(curve, list) or not curve:
        err(errors, where, "regret_curve must be a non-empty array")
        return
    prev_adaptive = prev_oracle = 0.0
    for i, point in enumerate(curve):
        w = f"{where} regret_curve[{i}]"
        if not isinstance(point, dict):
            err(errors, w, "must be an object")
            continue
        check_typed(errors, w, point, REGRET_POINT_FIELDS)
        cum_a = point.get("cum_adaptive_seconds")
        cum_o = point.get("cum_oracle_seconds")
        for label, cum, prev in (("cum_adaptive_seconds", cum_a,
                                  prev_adaptive),
                                 ("cum_oracle_seconds", cum_o,
                                  prev_oracle)):
            if isinstance(cum, (int, float)) and not isinstance(cum, bool):
                if cum < prev:
                    err(errors, w, f"{label} must be non-decreasing")
        if isinstance(cum_a, (int, float)) and not isinstance(cum_a, bool):
            prev_adaptive = cum_a
        if isinstance(cum_o, (int, float)) and not isinstance(cum_o, bool):
            prev_oracle = cum_o


FAILOVER_RECORD_FIELDS = {
    "dead_shard": int, "fault_class": str,
    "detected_at_seconds": (int, float), "reassigned_tuples": int,
    "reexec_chunks": int, "reexec_seconds": (int, float),
}

ROBUSTNESS_COUNTER_FIELDS = ["failovers", "reexec_windows"]

FAULT_CLASSES = {"shard_crash", "shard_stuck", "shard_slow", "link_down"}


def check_robustness(errors, where, rob):
    """Robustness section (src/obs/robustness.cc RobustnessJson):
    failover records and re-execution totals."""
    if not isinstance(rob, dict):
        err(errors, where, "robustness must be an object")
        return
    for field in ROBUSTNESS_COUNTER_FIELDS:
        check_uint(errors, where, rob, field)
    for field in ("detection_seconds", "slow_delay_seconds"):
        v = rob.get(field)
        if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
            err(errors, where, f"{field!r} must be a non-negative number, "
                f"got {v!r}")
    records = rob.get("failover_records")
    if not isinstance(records, list):
        err(errors, where, "failover_records must be an array")
        records = []
    if rob.get("failovers") != len(records):
        err(errors, where,
            f"failovers says {rob.get('failovers')!r} but "
            f"{len(records)} failover record(s) are present")
    seen_dead = set()
    for i, fo in enumerate(records):
        w = f"{where} failover[{i}]"
        if not isinstance(fo, dict):
            err(errors, w, "must be an object")
            continue
        check_typed(errors, w, fo, FAILOVER_RECORD_FIELDS)
        if fo.get("fault_class") not in FAULT_CLASSES:
            err(errors, w, f"fault_class must be one of "
                f"{sorted(FAULT_CLASSES)}, got {fo.get('fault_class')!r}")
        dead = fo.get("dead_shard")
        if isinstance(dead, int) and not isinstance(dead, bool):
            # A shard dies once; two failover records for the same id
            # would mean double-counted (or double-executed) recovery.
            if dead in seen_dead:
                err(errors, w, f"duplicate dead shard id {dead}")
            seen_dead.add(dead)


INGEST_COUNTER_FIELDS = [
    "ops_applied", "inserts", "updates", "deletes", "ops_shed",
    "merges_started", "merges", "swap_stalls", "epochs",
    "delta_entries", "delta_entries_peak", "delta_bytes",
    "delta_bytes_peak", "overlay_entries",
]

INGEST_STALENESS_FIELDS = ["mean", "p50", "p95", "p99", "max"]

TENANT_SCHEDULERS = {"fifo", "fair"}

TENANT_TIER_COUNTER_FIELDS = [
    "tenants", "requests", "admitted", "shed_rate_limit", "shed_backlog",
    "served",
]

TENANT_LATENCY_FIELDS = ["mean", "p50", "p95", "p99", "max"]

TENANT_CACHE_COUNTER_FIELDS = [
    "reserved_bytes", "lookups", "hits", "misses", "insertions",
    "evictions", "skipped_too_large", "entries", "used_bytes",
]


def check_tenants(errors, where, tenants):
    """Multi-tenant serving section (src/obs/tenant.cc TenantsJson):
    scheduler identity, per-tier admission/latency breakdown, and the
    hot-key result cache's counters."""
    if not isinstance(tenants, dict):
        err(errors, where, "tenants must be an object")
        return
    sched = tenants.get("scheduler")
    if sched not in TENANT_SCHEDULERS:
        err(errors, where, f"scheduler must be one of "
            f"{sorted(TENANT_SCHEDULERS)}, got {sched!r}")
    for field in ("tenants", "tenants_seen", "rogue_requests"):
        check_uint(errors, where, tenants, field)
    pop = tenants.get("tenants")
    seen = tenants.get("tenants_seen")
    if isinstance(pop, int) and isinstance(seen, int) \
            and not isinstance(pop, bool) and seen > pop:
        err(errors, where, f"tenants_seen ({seen}) cannot exceed the "
            f"tenant population ({pop})")

    tiers = tenants.get("tiers")
    if not isinstance(tiers, list) or not tiers:
        err(errors, where, "tiers must be a non-empty array")
        tiers = []
    seen_names = set()
    for i, tier in enumerate(tiers):
        w = f"{where} tier[{i}]"
        if not isinstance(tier, dict):
            err(errors, w, "must be an object")
            continue
        name = tier.get("tier")
        if not isinstance(name, str) or not name:
            err(errors, w, "tier must be a non-empty string")
        elif name in seen_names:
            err(errors, w, f"duplicate tier name {name!r}")
        else:
            seen_names.add(name)
        weight = tier.get("weight")
        if not isinstance(weight, (int, float)) or isinstance(weight, bool) \
                or weight <= 0:
            err(errors, w, f"weight must be a positive number, "
                f"got {weight!r}")
        for field in TENANT_TIER_COUNTER_FIELDS:
            check_uint(errors, w, tier, field)
        reqs = tier.get("requests")
        parts = [tier.get(f) for f in ("admitted", "shed_rate_limit",
                                       "shed_backlog")]
        if all(isinstance(v, int) and not isinstance(v, bool)
               for v in [reqs] + parts) and sum(parts) != reqs:
            err(errors, w, f"admitted + shed_rate_limit + shed_backlog "
                f"must equal requests ({sum(parts)} != {reqs})")
        served = tier.get("served")
        admitted = tier.get("admitted")
        if isinstance(served, int) and isinstance(admitted, int) \
                and not isinstance(served, bool) and served > admitted:
            err(errors, w, f"served ({served}) cannot exceed "
                f"admitted ({admitted})")
        lat = tier.get("latency")
        if not isinstance(lat, dict):
            err(errors, w, "latency must be an object")
            continue
        check_uint(errors, f"{w} latency", lat, "count")
        if isinstance(served, int) and not isinstance(served, bool) \
                and lat.get("count") != served:
            err(errors, w, f"latency count ({lat.get('count')!r}) must "
                f"equal served ({served})")
        for field in TENANT_LATENCY_FIELDS:
            v = lat.get(field)
            if not isinstance(v, (int, float)) or isinstance(v, bool) \
                    or v < 0:
                err(errors, f"{w} latency", f"{field!r} must be a "
                    f"non-negative number, got {v!r}")

    cache = tenants.get("cache")
    if not isinstance(cache, dict):
        err(errors, where, "cache must be an object")
        return
    w = f"{where} cache"
    for field in TENANT_CACHE_COUNTER_FIELDS:
        check_uint(errors, w, cache, field)
    for field in ("hit_seconds", "insert_seconds"):
        v = cache.get(field)
        if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
            err(errors, w, f"{field!r} must be a non-negative number, "
                f"got {v!r}")
    hits, misses, lookups = (cache.get(f) for f in
                             ("hits", "misses", "lookups"))
    if all(isinstance(v, int) and not isinstance(v, bool)
           for v in (hits, misses, lookups)) and hits + misses != lookups:
        err(errors, w, f"hits + misses must equal lookups "
            f"({hits} + {misses} != {lookups})")
    used = cache.get("used_bytes")
    reserved = cache.get("reserved_bytes")
    if all(isinstance(v, int) and not isinstance(v, bool)
           for v in (used, reserved)) and reserved > 0 and used > reserved:
        err(errors, w, f"used_bytes ({used}) cannot exceed "
            f"reserved_bytes ({reserved})")
    if isinstance(reserved, int) and not isinstance(reserved, bool) \
            and reserved == 0:
        for field in ("lookups", "hits", "entries", "used_bytes"):
            v = cache.get(field)
            if isinstance(v, int) and not isinstance(v, bool) and v != 0:
                err(errors, w, f"{field!r} must be 0 when no cache is "
                    f"reserved, got {v!r}")


def check_ingest(errors, where, ingest):
    """HTAP ingest section (src/obs/ingest.cc IngestJson): write-stream
    counts, background-merge activity, delta footprint, and the merge
    staleness histogram."""
    if not isinstance(ingest, dict):
        err(errors, where, "ingest must be an object")
        return
    for field in INGEST_COUNTER_FIELDS:
        check_uint(errors, where, ingest, field)
    for field in ("merge_seconds", "swap_stall_seconds"):
        v = ingest.get(field)
        if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
            err(errors, where, f"{field!r} must be a non-negative number, "
                f"got {v!r}")
    ops = ingest.get("ops_applied")
    parts = [ingest.get(f) for f in ("inserts", "updates", "deletes")]
    if all(isinstance(v, int) and not isinstance(v, bool)
           for v in [ops] + parts) and sum(parts) != ops:
        err(errors, where, f"inserts + updates + deletes must equal "
            f"ops_applied ({sum(parts)} != {ops})")
    merges = ingest.get("merges")
    started = ingest.get("merges_started")
    if isinstance(merges, int) and isinstance(started, int) \
            and not isinstance(merges, bool) and merges > started:
        err(errors, where, f"merges ({merges}) cannot exceed "
            f"merges_started ({started})")
    swaps = ingest.get("swap_stalls")
    if isinstance(swaps, int) and isinstance(merges, int) \
            and not isinstance(swaps, bool) and swaps != merges:
        err(errors, where, f"swap_stalls ({swaps}) must equal completed "
            f"merges ({merges}): one epoch swap per merge")
    peak = ingest.get("delta_entries_peak")
    end = ingest.get("delta_entries")
    if isinstance(peak, int) and isinstance(end, int) \
            and not isinstance(peak, bool) and end > peak:
        err(errors, where, f"delta_entries ({end}) cannot exceed "
            f"delta_entries_peak ({peak})")
    stale = ingest.get("staleness")
    if not isinstance(stale, dict):
        err(errors, where, "staleness must be an object")
        return
    w = f"{where} staleness"
    check_uint(errors, w, stale, "count")
    for field in INGEST_STALENESS_FIELDS:
        v = stale.get(field)
        if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
            err(errors, w, f"{field!r} must be a non-negative number, "
                f"got {v!r}")


def check_record(errors, where, rec):
    if not isinstance(rec, dict):
        err(errors, where, "record must be a JSON object")
        return
    if rec.get("schema_version") != SCHEMA_VERSION:
        err(errors, where, f"schema_version must be {SCHEMA_VERSION}, "
            f"got {rec.get('schema_version')!r}")
    bench = rec.get("bench")
    if not isinstance(bench, str) or not bench:
        err(errors, where, "bench must be a non-empty string")
    if not isinstance(rec.get("params"), dict):
        err(errors, where, "params must be an object")

    if "platform" in rec:
        check_platform(errors, where, rec["platform"])

    has_run = "run" in rec
    for section in ("counters", "stages", "phases"):
        if (section in rec) != has_run:
            err(errors, where,
                f"{section!r} must appear exactly when 'run' does")
    if has_run:
        run = rec["run"]
        if not isinstance(run, dict):
            err(errors, where, "run must be an object")
        else:
            check_typed(errors, f"{where} run", run, RUN_FIELDS)
        check_counters(errors, f"{where} run", rec.get("counters", {}))

        stages = rec.get("stages")
        if not isinstance(stages, list):
            err(errors, where, "stages must be an array")
        else:
            for i, stage in enumerate(stages):
                w = f"{where} stage[{i}]"
                if not isinstance(stage, dict):
                    err(errors, w, "must be an object")
                    continue
                check_typed(errors, w, stage,
                            {"name": str, "seconds": (int, float)})

        phases = rec.get("phases")
        if not isinstance(phases, list):
            err(errors, where, "phases must be an array")
        else:
            for i, phase in enumerate(phases):
                w = f"{where} phase[{i}]"
                if not isinstance(phase, dict):
                    err(errors, w, "must be an object")
                    continue
                check_typed(errors, w, phase, PHASE_FIELDS)
                window = phase.get("window", "missing")
                if window is not None and (not isinstance(window, int)
                                           or isinstance(window, bool)):
                    err(errors, w, f"window must be an integer or null, "
                        f"got {window!r}")
                check_counters(errors, w, phase.get("counters", {}))

    if "trace" in rec:
        trace = rec["trace"]
        regions = trace.get("regions") if isinstance(trace, dict) else None
        if not isinstance(regions, dict):
            err(errors, where, "trace.regions must be an object")
        else:
            for name, stats in regions.items():
                w = f"{where} trace region {name!r}"
                if not isinstance(stats, dict):
                    err(errors, w, "must be an object")
                    continue
                for field in TRACE_REGION_FIELDS:
                    check_uint(errors, w, stats, field)

    if "metrics" in rec:
        check_metrics(errors, where, rec["metrics"])

    # Sharded-engine sections (bench/fig10_scaleout): per-shard and
    # per-link breakdowns travel together.
    for section in ("shards", "links"):
        if (section in rec) != ("shards" in rec and "links" in rec):
            err(errors, where, "'shards' and 'links' must appear together")
            break
    if "shards" in rec:
        check_shards(errors, where, rec["shards"])
    if "links" in rec:
        check_links(errors, where, rec["links"])

    # Cluster-tier sections (bench/fig15_multinode): per-node and
    # network-link breakdowns travel together.
    for section in ("nodes", "network_links"):
        if (section in rec) != ("nodes" in rec and "network_links" in rec):
            err(errors, where,
                "'nodes' and 'network_links' must appear together")
            break
    if "nodes" in rec:
        check_nodes(errors, where, rec["nodes"], rec.get("params"))
    if "network_links" in rec:
        check_network_links(errors, where, rec["network_links"])

    # Robustness section (bench/fig12_chaos, fig15_multinode): failover
    # activity.
    if "robustness" in rec:
        check_robustness(errors, where, rec["robustness"])

    # HTAP ingest section (bench/fig13_htap): delta/merge/epoch-swap
    # activity. Omitted entirely on write-free runs.
    if "ingest" in rec:
        check_ingest(errors, where, rec["ingest"])

    # Multi-tenant serving section (bench/fig14_tenants): per-tier
    # admission/latency plus the hot-key result cache. Omitted on
    # single-tenant runs so legacy records stay bit-identical.
    if "tenants" in rec:
        check_tenants(errors, where, rec["tenants"])

    # Adaptive-routing sections (bench/fig11_adaptive, serve_latency
    # --planner adaptive|oracle).
    if "planner" in rec:
        check_planner(errors, where, rec["planner"])
    if "statics" in rec:
        check_plan_seconds(errors, where, rec["statics"], "statics")
    if "regret_curve" in rec:
        check_regret_curve(errors, where, rec["regret_curve"])


def validate_file(path):
    errors = []
    records = 0
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                where = f"{path}:{lineno}"
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as e:
                    err(errors, where, f"invalid JSON: {e}")
                    continue
                records += 1
                check_record(errors, where, rec)
    except OSError as e:
        errors.append(f"{path}: {e}")
    return records, errors


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    total_records = 0
    total_errors = []
    for path in argv[1:]:
        records, errors = validate_file(path)
        total_records += records
        total_errors.extend(errors)
    for e in total_errors:
        print(e, file=sys.stderr)
    if total_errors:
        print(f"FAIL: {len(total_errors)} violation(s) across "
              f"{total_records} record(s)", file=sys.stderr)
        return 1
    print(f"OK: {total_records} record(s) valid "
          f"(schema_version {SCHEMA_VERSION})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
