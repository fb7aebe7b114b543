"""Metric arithmetic of the fcbench benchmark.

Pure functions over the driver's raw record (see main.cc): no I/O, so
test_metrics.py can pin every rule down on hand-made inputs.
"""

import math
import statistics

# A tail percentile is reported only with at least this many samples beyond
# it; with fewer, the highest percentile that has them is reported instead.
TAIL_SAMPLES_BEYOND = 10


def percentile(values, p):
    """Percentile `p` (0..100) of `values`, interpolating linearly between
    closest ranks (rank p/100 * (n - 1), as numpy's default)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(values, want=90):
    """(p, value, n): percentile `want` of `values` if at least
    TAIL_SAMPLES_BEYOND samples lie beyond it, else the highest whole
    percentile that has them (the median at worst), with the sample count."""
    n = len(values)
    if n == 0:
        raise ValueError("tail percentile of no samples")
    limit = 100.0 * (1.0 - TAIL_SAMPLES_BEYOND / n)
    p = max(50, min(want, math.floor(limit)))
    return p, percentile(values, p), n


def samples_beyond(n, p):
    """Samples strictly above rank p/100 * (n - 1)."""
    return n - 1 - math.floor((n - 1) * p / 100.0)


def ratio(numerator, base, unit="ratio"):
    """(value, unit, base): numerator / base, or 0.0 when the base is 0 -- a
    ratio is always reported together with its base, so a 0 base shows."""
    value = numerator / base if base else 0.0
    return value, unit, base


def error_rate(attempted, failed, crashed=False):
    """Failed rounds over rounds attempted; a crashed run fails them all."""
    if attempted <= 0:
        raise ValueError("no rounds attempted")
    failed = attempted if crashed else min(failed, attempted)
    return failed / attempted


def span(spans, name):
    """(total ms, count) of a span name; (0.0, 0) when it never ran."""
    entry = spans.get(name)
    return (entry["ms"], entry["count"]) if entry else (0.0, 0)


def per_call(spans, name, scale=1.0):
    """Mean duration of one `name` span in ms times `scale`; 0 if absent."""
    ms, count = span(spans, name)
    return ms * scale / count if count else 0.0


def untraced(reps):
    return [rep for rep in reps if not rep["traced"]]


def end_to_end(record):
    """{name: (value, unit, n, note)} of the run's end-to-end metrics.
    Durations are wall time."""
    reps = untraced(record["reps"])
    config = record["config"]
    median = statistics.median
    setups = [d + s for d, s in zip(record["data_ms"], record["server_ms"])]
    rounds = [ms for rep in reps for ms in rep["round_ms"]]
    p, tail, n = tail_percentile(rounds, 90)

    def rate(rep):
        return rep["dispatches"] * config["samples_per_dispatch"] / (
            rep["loop_ms"] / 1000.0)

    def to_target(rep):
        # A repetition that never reached the target (a failure) counts
        # with its whole length.
        ms = rep["ttt_ms"]
        return (ms if ms >= 0 else rep["run_ms"]) / 1000.0

    missed = sum(1 for rep in reps if rep["ttt_ms"] < 0)
    return {
        "setup_s": (median(setups) / 1000.0, "s", len(setups),
                    "median build"),
        "round_ms.p50": (median(rounds), "ms", n, "median round"),
        "round_ms.p90": (tail, "ms", n, "p%d, %d rounds beyond" %
                         (p, samples_beyond(n, p))),
        "samples_per_s": (median(rate(rep) for rep in reps), "1/s",
                          len(reps), "median repetition"),
        # A mean: rounds-to-target is a small whole number, and a median
        # of whole numbers jumps a full round between runs.
        "time_to_target_s": (statistics.fmean(to_target(rep) for rep in reps),
                             "s", len(reps), "mean repetition%s" %
                             (", %d never reached" % missed
                              if missed else "")),
        "final_acc": (100.0 * median(rep["final_acc"] for rep in reps), "%",
                      len(reps), "median repetition"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB", 1, "whole run"),
        "uplink_wire_mb": (median(rep["uplink_wire_bytes"]
                                  for rep in reps) / 1e6, "MB", len(reps),
                           "median repetition"),
    }


def per_layer(record):
    """{name: (value, unit, base)} of the traced run's per-layer metrics."""
    t = record["trace_totals"]
    spans, counters = t["spans"], t["counters"]
    config, host = record["config"], record["host"]
    threads = host["fl_threads"]
    rounds = max(t["rounds"], 1)
    traced = [rep for rep in record["reps"] if rep["traced"]]
    plain = {rep["rep"]: rep for rep in untraced(record["reps"])}

    def per_round(name):
        return span(spans, name)[0] / rounds

    train_ms, _ = span(spans, "phase.train")
    samples = t["dispatches"] * config["samples_per_dispatch"]
    train_gflops = (config["flops_per_sample"] * samples / (train_ms / 1e3) /
                    1e9 if train_ms else 0.0)
    gemm_ms, gemm_calls = span(spans, "bench.tensor.gemm")
    gemm_gflops = (2.0 * config["gemm_n"]**3 * gemm_calls / (gemm_ms / 1e3) /
                   1e9 if gemm_ms else 0.0)
    hits = counters.get("fl.pool.checkout.hit", 0)
    misses = counters.get("fl.pool.checkout.miss", 0)
    steps = counters.get("fl.plan.steps", 0)
    select_ms = per_call(spans, "bench.core.select_round")
    scan_ms = per_call(spans, "bench.core.similarity_round")
    raw_up = sum(rep["uplink_raw_bytes"] for rep in traced)
    wire_up = sum(rep["uplink_wire_bytes"] for rep in traced)
    codec_ms = (per_call(spans, "bench.comm.encode_up") +
                per_call(spans, "bench.comm.decode_up") +
                per_call(spans, "bench.comm.encode_down") +
                per_call(spans, "bench.comm.decode_down"))
    round_ms = t["round_ms_total"] / rounds
    traced_loop = sum(rep["loop_ms"] for rep in traced)
    plain_loop = sum(plain[rep["rep"]]["loop_ms"] for rep in traced)
    checkpoint_mb = statistics.median(
        rep["checkpoint_bytes"] for rep in traced) / 1e6

    return {
        "phase.train_ms": (train_ms / rounds, "ms", None),
        "phase.train_share": ratio(train_ms, t["round_ms_total"]),
        "plan.lockstep_ms": (per_round("plan.lockstep"), "ms", None),
        # Wall share of the round the training kernels take: lockstep spans
        # run on the pool's `threads` workers and on the calling thread.
        "plan.lockstep_share": ratio(span(spans, "plan.lockstep")[0],
                                     t["round_ms_total"] * (threads + 1)
                                     if threads > 1 else
                                     t["round_ms_total"]),
        "train.gflop_per_s": (train_gflops, "GFLOP/s", None),
        "tensor.gemm_peak_gflop_per_s": (gemm_gflops, "GFLOP/s", None),
        "train.peak_share": ratio(train_gflops, gemm_gflops * threads),
        "client.train_ms": (per_round("client.train"), "ms", None),
        "plan.fused_share": ratio(counters.get("fl.plan.fused_steps", 0),
                                  steps),
        "plan.fallback_jobs": (counters.get("fl.plan.fallback_jobs", 0),
                               "count", None),
        "pool.hit_ratio": ratio(hits, hits + misses),
        "pool.arena_mb": (t["arena_bytes_max"] / 1e6, "MB", None),
        "threadpool.tasks": (counters.get("util.pool.tasks", 0) / rounds,
                             "count", None),
        # Pool task time inside phase.train spans over their wall time on
        # every thread.
        "threadpool.busy_share": ratio(t["pool_in_train_ms"],
                                       t["train_window_ms"] * threads),
        "threadpool.queue_depth": (t["queue_depth_max"], "count", None),
        "phase.dispatch_ms": (per_round("phase.dispatch"), "ms", None),
        "phase.screen_ms": (per_round("phase.screen"), "ms", None),
        "phase.aggregate_ms": (per_round("phase.aggregate"), "ms", None),
        "phase.aggregate_share": ratio(span(spans, "phase.aggregate")[0],
                                       t["round_ms_total"]),
        "phase.coverage": ratio(t["phase_self_ms_total"],
                                t["round_ms_total"]),
        "engine.retry_share": ratio(t["retries"], t["dispatches"]),
        "engine.timeout_share": ratio(t["timeouts"], t["dispatches"]),
        "engine.wasted_wire_share": ratio(t["wire_wasted_bytes"],
                                          t["wire_total_bytes"]),
        "engine.staleness_mean": ratio(t["staleness_sum"],
                                       t["staleness_count"], "versions"),
        "core.select_ms": (select_ms, "ms", None),
        # One round of SelectCollaborator over one round of the K(K-1)
        # similarity scans made directly: near 1 when selection is its scans.
        "core.select_over_scan": ratio(select_ms, scan_ms),
        "core.cross_agg_ms": (per_call(spans, "bench.core.cross_agg_round"),
                              "ms", None),
        "core.global_gen_ms": (per_call(spans, "bench.global_gen"), "ms",
                               None),
        "comm.encode_up_us": (per_call(spans, "bench.comm.encode_up", 1e3),
                              "us", None),
        "comm.decode_up_us": (per_call(spans, "bench.comm.decode_up", 1e3),
                              "us", None),
        "comm.encode_down_us": (per_call(spans, "bench.comm.encode_down",
                                         1e3), "us", None),
        "comm.decode_down_us": (per_call(spans, "bench.comm.decode_down",
                                         1e3), "us", None),
        "comm.up_ratio": ratio(raw_up, wire_up),
        "comm.round_share": ratio(codec_ms * t["dispatches"] / rounds,
                                  round_ms),
        "privacy.sanitize_us": (per_call(spans, "bench.privacy.sanitize",
                                         1e3), "us", None),
        "privacy.masked_sum_ms": (per_call(spans, "bench.privacy.masked_sum"),
                                  "ms", None),
        "privacy.mask_pairs": (t["mask_pairs"] / rounds, "count", None),
        "privacy.mask_recoveries": (t["mask_recoveries"] / rounds, "count",
                                    None),
        "eval.ms": (per_call(spans, "bench.fl.evaluate"), "ms", None),
        "checkpoint.save_ms": (per_call(spans, "bench.checkpoint.save"), "ms",
                               None),
        "checkpoint.load_ms": (per_call(spans, "bench.checkpoint.load"), "ms",
                               None),
        "checkpoint.mb": (checkpoint_mb, "MB", None),
        "population.resident_clients": (t["resident_clients_max"], "count",
                                        None),
        "data.build_ms": (statistics.median(record["data_ms"]), "ms", None),
        "server.build_ms": (statistics.median(record["server_ms"]), "ms",
                            None),
        "trace.overhead_share": (traced_loop / plain_loop - 1.0
                                 if plain_loop else 0.0, "ratio", plain_loop),
    }


def path_failures(record, layer):
    """What the traced run shows the workload did not exercise, as messages.
    `layer` is per_layer(record)."""
    t = record["trace_totals"]
    config = record["config"]
    k = config["k"]
    value = {name: entry[0] for name, entry in layer.items()}
    failures = []

    def need(ok, message):
        if not ok:
            failures.append(message)

    need(t["harvest_ok"], "trace export could not be read back")
    need(not record["probe_error"], "probe: %s" % record["probe_error"])
    need(abs(value["phase.coverage"] - 1.0) <= 0.05,
         "phase.* self times cover %.3f of RunRound time, not 1 +- 0.05" %
         value["phase.coverage"])
    plain = {rep["rep"]: rep["digest"]
             for rep in untraced(record["reps"])}
    for rep in record["reps"]:
        if rep["traced"] and plain.get(rep["rep"]) != rep["digest"]:
            failures.append("traced repetition %d changed the final params" %
                            rep["rep"])

    workload = record["workload"]
    if workload == "cnn-sync":
        need(t["counters"].get("fl.plan.fused_steps", 0) > 0,
             "no fused plan steps")
        need(t["counters"].get("fl.plan.fallback_jobs", 0) == 0,
             "plan jobs fell back to the interpreter")
    elif workload == "wide-server":
        need(value["comm.up_ratio"] > 1.0,
             "uplink wire bytes not below raw bytes")
    elif workload == "resnet-async":
        for name, got in (("timeouts", t["timeouts"]),
                          ("retries", t["retries"]),
                          ("mask pairs", t["mask_pairs"]),
                          ("mask recoveries", t["mask_recoveries"])):
            need(got > 0, "no %s in the traced run" % name)
        saves = sum(rep["periodic_checkpoints"] for rep in record["reps"]
                    if rep["traced"])
        need(saves > 0, "no periodic checkpoint saves")
        bound = 3 * k
        need(t["resident_clients_max"] <= bound,
             "%d resident clients, bound %d" %
             (t["resident_clients_max"], bound))
    return failures
