#!/usr/bin/env python3
"""Trace folder: turns a traced elbench run into per-layer time.

    python3 elbench/tracefold.py <trace.json>   # prints the folded summary

A trace holds one entry per phase. Each phase carries the benchmark's own
spans (name, start, duration, parent, batch or request id, all on the
thread that drove the phase) and the program's exported chrome trace
(obs::export_chrome_trace_json). Both share an origin: the benchmark's
anchor span is the first program span of every phase.

Benchmark spans form a tree through their explicit parents. Program spans
on the driving thread nest among themselves by time; each outermost one
hangs under the innermost benchmark span that contains its midpoint. A
node's self time is its duration minus its children's. Layers are the
module names under src/; every span maps to one by its name.
"""

import bisect
import json
import sys

# First dotted component of a span name -> layer (module under src/).
LAYER = {
    "data": "data", "reorder": "reorder", "core": "core", "efftt": "core",
    "tensor": "tensor", "embed": "embed", "dlrm": "dlrm",
    "pipeline": "pipeline", "elrec": "pipeline", "codec": "codec",
    "serve": "serve", "obs": "obs",
}


def layer_of(name):
    return LAYER.get(name.split(".", 1)[0], "other")


class Node:
    __slots__ = ("name", "source", "start", "end", "children", "id")

    def __init__(self, name, source, start, end, ident=-1):
        self.name, self.source = name, source
        self.start, self.end = start, end
        self.children = []
        self.id = ident

    @property
    def dur(self):
        return self.end - self.start

    def self_time(self):
        return self.dur - sum(c.dur for c in self.children)


def program_events(phase):
    return [e for e in phase["program"]["traceEvents"] if e.get("ph") == "X"]


def main_tid(phase):
    for e in program_events(phase):
        if e["name"] == "elbench.anchor":
            return e["tid"]
    raise ValueError("phase %s has no anchor span" % phase["name"])


def build_tree(phase):
    """Returns the benchmark nodes (in recording order) with program spans
    of the driving thread attached below them."""
    bench = []
    for s in phase["bench"]:
        node = Node(s["name"], "bench", s["ts"], s["ts"] + s["dur"], s["id"])
        bench.append(node)
        if s["parent"] >= 0:
            bench[s["parent"]].children.append(node)
    tid = main_tid(phase)
    prog = sorted(
        (Node(e["name"], "program", e["ts"], e["ts"] + e["dur"])
         for e in program_events(phase)
         if e["tid"] == tid and e["name"] != "elbench.anchor"),
        key=lambda n: (n.start, -n.end))
    parent_of = {}
    for i, s in enumerate(phase["bench"]):
        parent_of[id(bench[i])] = bench[s["parent"]] if s["parent"] >= 0 else None
    starts = [b.start for b in bench]  # recording order == start order
    stack = []
    for node in prog:
        while stack and stack[-1].end <= node.start:
            stack.pop()
        if stack and node.end <= stack[-1].end:
            stack[-1].children.append(node)
        else:
            mid = 0.5 * (node.start + node.end)
            owner = None
            i = bisect.bisect_right(starts, mid) - 1
            cand = bench[i] if i >= 0 else None
            while cand is not None:
                if cand.start <= mid <= cand.end:
                    owner = cand
                    break
                cand = parent_of[id(cand)]
            if owner is not None:
                owner.children.append(node)
        stack.append(node)
    return bench


def walk(node):
    yield node
    for c in node.children:
        yield from walk(c)


def fold_roots(phase, root_name):
    """Per root span (one batch or request): inclusive time by span name and
    self time by layer, in microseconds."""
    rows = []
    for root in build_tree(phase):
        if root.name != root_name or root.source != "bench":
            continue
        incl, self_by_layer = {}, {}
        for n in walk(root):
            if n is root:
                continue
            key = n.source + ":" + n.name
            incl[key] = incl.get(key, 0.0) + n.dur
            layer = layer_of(n.name)
            self_by_layer[layer] = self_by_layer.get(layer, 0.0) + n.self_time()
        rows.append({"id": root.id, "wall_us": root.dur,
                     "uncovered_us": root.self_time(),
                     "inclusive_us": incl, "self_us": self_by_layer})
    return rows


def summarize(rows):
    n = max(1, len(rows))
    wall = sum(r["wall_us"] for r in rows)
    mean_incl, mean_self = {}, {}
    for r in rows:
        for k, v in r["inclusive_us"].items():
            mean_incl[k] = mean_incl.get(k, 0.0) + v / n
        for k, v in r["self_us"].items():
            mean_self[k] = mean_self.get(k, 0.0) + v / n
    return {
        "roots": len(rows),
        "coverage": 1.0 - sum(r["uncovered_us"] for r in rows) / wall if wall else 0.0,
        "wall_us_mean": wall / n,
        "inclusive_us_mean": mean_incl,
        "self_us_mean_by_layer": mean_self,
    }


def durations(phase, name, tid=None):
    return [e["dur"] for e in program_events(phase)
            if e["name"] == name and (tid is None or e["tid"] == tid)]


def percentile(values, q):
    if not values:
        return 0.0
    v = sorted(values)
    pos = q / 100.0 * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (pos - lo) * (v[hi] - v[lo])


def fold_trainer(phase):
    """The threaded ElRecTrainer run: batch-time percentiles, prefetch wait,
    and which side (server or worker) bounds the pipeline."""
    tid = main_tid(phase)
    events = program_events(phase)
    batches = [e for e in events if e["name"] == "elrec.batch" and e["tid"] == tid]
    n = max(1, len(batches))
    wall = (max(e["ts"] + e["dur"] for e in batches) - min(e["ts"] for e in batches)
            if batches else 0.0)
    server = sum(e["dur"] for e in events if e["tid"] != tid and
                 e["name"] in ("elrec.host_pull", "elrec.host_push"))
    waits = sum(durations(phase, "elrec.prefetch_wait", tid))
    pushes = sum(durations(phase, "elrec.grad_push", tid))
    batch_sum = sum(e["dur"] for e in batches)
    return {
        "batches": len(batches),
        "batch_us_p50": percentile([e["dur"] for e in batches], 50),
        "batch_us_p99": percentile([e["dur"] for e in batches], 99),
        "prefetch_wait_us": waits / n,
        "server_busy_ratio": server / wall if wall else 0.0,
        "worker_idle_ratio": (waits + pushes) / batch_sum if batch_sum else 0.0,
    }


def fold(trace):
    """Folds every phase of a loaded trace document. A serving-only trace
    has no trainer and no training replica; their keys are left out."""
    phases = {p["name"]: p for p in trace["phases"]}
    serve_rows = fold_roots(phases["serve_replica"], "serve.compute")
    live = phases["serve_live"]
    out = {}
    replica_rows = []
    if "replica" in phases:
        replica_rows = fold_roots(phases["replica"], "replica.step")
        out["replica"] = summarize(replica_rows)
        out["trainer"] = fold_trainer(phases["trainer"])
        out["batched_gemm_us_total"] = sum(
            durations(phases["replica"], "tensor.batched_gemm"))
    out.update({
        "serve_replica": summarize(serve_rows),
        "serve_live": {
            "compute_us_p50": percentile(durations(live, "serve.compute"), 50),
            "compute_us_p99": percentile(durations(live, "serve.compute"), 99),
            "micro_batches": len(durations(live, "serve.compute")),
        },
        "per_batch": replica_rows,
        "per_request_batch": serve_rows,
    })
    return out


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    with open(argv[1]) as f:
        folded = fold(json.load(f))
    for key in ("per_batch", "per_request_batch"):
        folded.pop(key)
    json.dump(folded, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
