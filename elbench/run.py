#!/usr/bin/env python3
"""Repository benchmark: builds elbench from this checkout and runs one workload.

    python3 elbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first run configures and builds
into .bench_build/ (the repository's libraries with their own flags, plus
the elbench program). With --trace 0 the run prints every end-to-end metric
of BENCHMARK.json; with --trace 1 it runs the traced replicas, folds the
spans (tracefold.py) and prints every per-layer metric. Each metric is
printed as a line "name value unit samples", and the last line of standard
output is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A failed correctness check sets "correct" to false. Raw results, traces and
folded traces stay in .bench_build/runs/.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "elbench")
RUNS = os.path.join(ROOT, ".bench_build", "runs")
WORKLOADS = ("train-tt-skewed", "train-ps-wide", "serve-zipf-open")
MIN_COVERAGE = 0.95
RUN_TIMEOUT_S = 170

sys.path.insert(0, HERE)
import tracefold  # noqa: E402


def fail(msg):
    sys.stderr.write("elbench: %s\n" % msg)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        fail("run from the root of a repository checkout (no CMakeLists.txt "
             "and src/ here)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "elbench", "-j",
                    str(os.cpu_count() or 1)], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "elbench")


def metric_table():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["end_to_end"], bench["per_layer"]


def layer_values(result, folded):
    """Per-layer metric values: the C++ program's own measurements plus the
    folded spans and the replica's counter deltas. A serving-only trace has
    no training replica; the training layers read 0 there."""
    v = dict(result["layers"])
    empty = {"inclusive_us_mean": {}, "roots": 0}
    rep = folded.get("replica", empty)["inclusive_us_mean"]
    srv = folded["serve_replica"]["inclusive_us_mean"]
    batches = folded.get("replica", empty)["roots"]

    def b(name):
        return rep.get("bench:" + name, 0.0)

    def p(name):
        return rep.get("program:" + name, 0.0)

    v["core.efftt.forward_us"] = b("core.efftt.forward")
    v["core.efftt.backward_us"] = b("core.efftt.backward")
    for phase in ("prefix", "expand", "pool", "dedup", "grad_aggregate",
                  "grad_chain", "grad_merge", "update"):
        v["core.efftt.%s_us" % phase] = p("efftt." + phase)
    for mlp in ("bottom_mlp", "top_mlp", "interaction"):
        for d in ("forward", "backward"):
            v["dlrm.%s.%s_us" % (mlp, d)] = b("dlrm.%s.%s" % (mlp, d))
    v["dlrm.loss_us"] = b("dlrm.loss")
    for table in ("dense_bag", "host_client"):
        for d in ("forward", "backward"):
            v["embed.%s.%s_us" % (table, d)] = b("embed.%s.%s" % (table, d))
    for stage in ("host_pull", "host_push", "cache_sync", "cache_update"):
        v["pipeline.%s_us" % stage] = b("pipeline." + stage)
    v["codec.encode_us"] = b("codec.encode")
    v["codec.decode_us"] = b("codec.decode")
    v["data.next_batch_us"] = b("data.next_batch")
    trainer = folded.get("trainer", {})
    for k in ("batch_us_p50", "batch_us_p99", "prefetch_wait_us",
              "server_busy_ratio", "worker_idle_ratio"):
        v["pipeline." + k] = trainer.get(k, 0.0)
    for k in ("rows_patched_per_batch", "queue_bytes_per_batch"):
        v.setdefault("pipeline." + k, 0.0)

    c = result.get("replica_counters", {})
    hits = c.get("efftt.reuse.hits", 0)
    misses = c.get("efftt.reuse.misses", 0)
    v["core.efftt.reuse_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    products = c.get("tensor.batched_gemm.products", 0)
    skipped = c.get("tensor.batched_gemm.skipped", 0)
    gemm_s = folded.get("batched_gemm_us_total", 0.0) * 1e-6
    v["tensor.batched_gemm.gflops"] = (
        c.get("tensor.batched_gemm.flops", 0) / gemm_s * 1e-9 if gemm_s else 0.0)
    v["tensor.batched_gemm.products_per_batch"] = products / max(1, batches)
    v["tensor.batched_gemm.skipped_ratio"] = (
        skipped / (products + skipped) if products + skipped else 0.0)

    v["core.efftt.lookup_us"] = srv.get("bench:core.efftt.lookup", 0.0)
    v["dlrm.frozen_dense_us"] = sum(
        srv.get("bench:dlrm.%s" % k, 0.0)
        for k in ("bottom_mlp.forward_frozen", "interaction.forward_frozen",
                  "top_mlp.forward_frozen"))
    v["serve.compute_us_p50"] = folded["serve_live"]["compute_us_p50"]
    v["serve.compute_us_p99"] = folded["serve_live"]["compute_us_p99"]
    v["obs.self_time_coverage"] = min(
        folded[k]["coverage"] for k in ("replica", "serve_replica")
        if k in folded)
    return v


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    binary = build()
    e2e, per_layer = metric_table()
    os.makedirs(RUNS, exist_ok=True)
    stem = os.path.join(RUNS, "%s-seed%d-trace%d" % (args.workload, args.seed,
                                                     args.trace))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", stem + ".json"]
    if args.trace:
        cmd += ["--trace-out", stem + ".trace.json"]
    subprocess.run(cmd, stdout=sys.stderr, check=True, timeout=RUN_TIMEOUT_S)
    with open(stem + ".json") as f:
        result = json.load(f)

    checks = list(result["checks"])
    if args.trace:
        with open(stem + ".trace.json") as f:
            folded = tracefold.fold(json.load(f))
        with open(stem + ".fold.json", "w") as f:
            json.dump(folded, f, indent=1, sort_keys=True)
        values = layer_values(result, folded)
        # serve-zipf-open's trace has no training replica (tt covers it).
        phases = (("serve_replica",) if args.workload == "serve-zipf-open"
                  else ("replica", "serve_replica"))
        for phase in phases:
            cov = folded[phase]["coverage"] if phase in folded else 0.0
            checks.append({"name": "self_time_coverage_" + phase,
                           "ok": cov >= MIN_COVERAGE,
                           "detail": "%.4f over %d roots" % (
                               cov, folded.get(phase, {}).get("roots", 0))})
        wanted = per_layer
        samples = {}
    else:
        values = {k: m["value"] for k, m in result["e2e"].items()}
        samples = {k: m["samples"] for k, m in result["e2e"].items()}
        wanted = e2e

    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        ok = value is not None and math.isfinite(value)
        if not ok:
            checks.append({"name": "metric_" + m["name"], "ok": False,
                           "detail": "not measured"})
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    meta = result["meta"]
    print("# workload %s seed %d seconds %d trace %d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("# nproc %d omp_threads %d trainer_server_threads %d "
          "scheduler_workers %d generator_threads %d build %s" % (
              meta["nproc"], meta["omp_threads"],
              meta["trainer_server_threads"], meta["scheduler_workers"],
              meta["generator_threads"], meta["build_flags"]))
    for c in checks:
        print("# check %-40s %s  %s" % (c["name"], "ok" if c["ok"] else "FAILED",
                                        c["detail"]))
    if not args.trace:
        # What the stall filter dropped and what it would have shown.
        n = result["detail"]["serve_phases"][0]
        print("# nominal: %d of %d windows dropped for a generator stall; "
              "p99 over every request %.1f us, median window p99 %.1f us, "
              "generator lag p99 %.1f us" % (
                  n["stalled_windows"], n["windows"], n["all_p99_us"],
                  n["window_p99_us"], n["gen_lag_us_p99"]))
    for name, m in metrics.items():
        print("%-42s %18.6f %-10s %s" % (name, m["value"], m["unit"],
                                         samples.get(name, "-")))
    print(json.dumps({
        "correct": all(c["ok"] for c in checks),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
