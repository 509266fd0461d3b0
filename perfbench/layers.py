"""Per-layer metrics from the replay's spans and counters.

A span is one call into a layer: name, request id, parent span, start and
end (steady clock, ns), and the process CPU time spent across it. Request
roots are named "request"; their direct children are the layer calls the
request thread made, in order. Per-TU front-end spans run on pool workers
under a "frontend.fanout" span.

Farm metrics are per farm check (the median over the traced checks of a
run). stqd-edit metrics are per request of the kind that exercises the
layer (e.g. vm.* per `run` request), or per request of any kind for the
front end and diagnostics.
"""

import collections
import json
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))


def benchmark_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def dur(span):
    return (span["end_ns"] - span["start_ns"]) * 1e-9


def ratio(num, den):
    return num / den if den else 0.0


def empty_metrics():
    """Every per-layer metric at 0: a workload that never reaches a layer
    reports it as 0."""
    return {m["name"]: 0.0 for m in benchmark_spec()["per_layer"]}


class RequestSpans:
    """The spans of one request, indexed for the sums below."""

    def __init__(self, spans):
        self.spans = spans
        self.root = next((s for s in spans if s["name"] == "request"), None)
        self.by_name = collections.defaultdict(list)
        for s in spans:
            self.by_name[s["name"]].append(s)

    def total(self, name):
        return sum(dur(s) for s in self.by_name.get(name, ()))

    def cpu(self, name):
        return sum(s["cpu_ns"] for s in self.by_name.get(name, ())) * 1e-9

    def attributed(self):
        """Wall time the request thread spent inside layer calls."""
        if self.root is None:
            return 0.0
        return sum(dur(s) for s in self.spans
                   if s["parent"] == self.root["id"])


def group_requests(spans):
    reqs = collections.defaultdict(list)
    for s in spans:
        reqs[s["req"]].append(s)
    return {r: RequestSpans(ss) for r, ss in reqs.items()}


def front_end_metrics(m, reqs, per):
    """Sums shared by both workload kinds, divided by `per` requests."""
    for name, key in (("pp.busy_s", "pp.preprocess"),
                      ("cminus.parse_busy_s", "cminus.parse"),
                      ("cminus.sema_busy_s", "cminus.sema"),
                      ("cminus.lower_busy_s", "cminus.lower"),
                      ("frontend.link_s", "frontend.link"),
                      ("frontend.remap_s", "frontend.remap"),
                      ("support.diag_merge_s", "support.diag_merge"),
                      ("support.diag_render_s", "support.diag_render")):
        m[name] = ratio(sum(r.total(key) for r in reqs), per)


def attribution(reqs):
    roots = [r for r in reqs if r.root is not None]
    return ratio(sum(r.attributed() for r in roots),
                 sum(dur(r.root) for r in roots))


def farm_metrics(spans, result, jobs):
    """Per-layer metrics of the farm workloads, medians over traced checks."""
    reqs = [r for r in group_requests(spans).values() if r.root is not None]
    counts = result["counts"]
    n = len(reqs)
    per_check = []
    for r in reqs:
        m = empty_metrics()
        front_end_metrics(m, [r], 1)
        fan = r.by_name["frontend.fanout"]
        fan_wall = sum(dur(s) for s in fan)
        fan_ids = {s["id"] for s in fan}
        busy = sum(dur(s) for s in r.spans if s["parent"] in fan_ids)
        m["frontend.fanout_efficiency"] = ratio(busy, fan_wall * jobs)
        m["checker.wall_s"] = r.total("checker.check")
        m["checker.busy_s"] = r.cpu("checker.check")
        m["checker.parallel_efficiency"] = ratio(
            m["checker.busy_s"], m["checker.wall_s"] * jobs)
        m["qual.load_s"] = r.total("qual.load")
        per_check.append(m)
    m = {k: statistics.median(x[k] for x in per_check) for k in per_check[0]}
    m["pp.lines_out"] = ratio(counts["pp_lines_out"], n)
    m["checker.assign_checks"] = ratio(counts["assign_checks"], n)
    m["checker.assign_failures"] = ratio(counts["assign_failures"], n)
    m["checker.memo_hit_ratio"] = ratio(counts["memo_hits"],
                                        counts["has_qual_queries"])
    m["support.diag_count"] = ratio(counts["diag_count"], n)
    m["support.diag_bytes"] = ratio(counts["diag_bytes"], n)
    m["driver.attributed_share"] = attribution(reqs)
    m["driver.trace_overhead"] = ratio(
        statistics.median(result["traced_wall_s"]),
        statistics.median(result["untraced_wall_s"]))
    return m


def edit_metrics(spans, result, ops, busy_replies, client_ms):
    """Per-layer metrics of stqd-edit.

    `ops` lists (kind, client latency in s) in replay order; `client_ms`
    maps a kind to every client latency (ms) the traced run's loop saw.
    """
    reqs = group_requests(spans)
    counts = result["counts"]
    kinds = collections.Counter(kind for kind, _ in ops)
    by_kind = collections.defaultdict(list)
    for i, (kind, _) in enumerate(ops, start=1):
        if i in reqs:
            by_kind[kind].append(reqs[i])
    every = [r for i, r in reqs.items() if i != 0]
    m = empty_metrics()
    front_end_metrics(m, every, len(every))

    checked = by_kind["recheck"] + by_kind["run"]
    n_checked = kinds["recheck"] + kinds["run"]
    m["checker.wall_s"] = ratio(
        sum(r.total("checker.recheck") + r.total("checker.check")
            for r in checked), n_checked)
    m["checker.busy_s"] = ratio(
        sum(r.cpu("checker.recheck") + r.cpu("checker.check")
            for r in checked), n_checked)
    # stqd runs each request's checker with one job.
    m["checker.parallel_efficiency"] = ratio(m["checker.busy_s"],
                                             m["checker.wall_s"])
    m["checker.assign_checks"] = ratio(counts["assign_checks"], n_checked)
    m["checker.assign_failures"] = ratio(counts["assign_failures"], n_checked)
    m["checker.memo_hit_ratio"] = ratio(counts["memo_hits"],
                                        counts["has_qual_queries"])
    m["checker.incremental_hit_ratio"] = ratio(counts["incremental_hits"],
                                               counts["incremental_units"])
    m["checker.incremental_rechecked"] = ratio(
        counts["incremental_rechecked"], kinds["recheck"])

    infers = by_kind["infer"]
    m["checker.infer_busy_s"] = ratio(
        sum(r.cpu("checker.infer") for r in infers), len(infers))
    m["checker.infer_evaluations"] = ratio(counts["infer_evaluations"],
                                           kinds["infer"])

    runs = by_kind["run"]
    for name, key in (("vm.compile_s", "vm.compile"),
                      ("vm.elide_s", "vm.elide"),
                      ("vm.execute_s", "vm.execute")):
        m[name] = ratio(sum(r.total(key) for r in runs), len(runs))
    m["vm.checks_executed"] = ratio(counts["vm_checks_executed"], kinds["run"])

    proves = by_kind["prove"]
    m["soundness.busy_s"] = ratio(
        sum(r.cpu("soundness.check") for r in proves), len(proves))
    m["prover.obligations"] = ratio(counts["obligations"], kinds["prove"])
    m["prover.cache_hit_ratio"] = ratio(counts["obligations_from_cache"],
                                        counts["obligations"])

    m["support.diag_count"] = ratio(counts["diag_count"], len(ops))
    m["support.diag_bytes"] = ratio(counts["diag_bytes"], len(ops))

    overhead = [lat * 1e3 - inproc
                for (_, lat), inproc in zip(ops, result["untraced_op_ms"])]
    m["server.overhead_ms"] = statistics.median(overhead) if overhead else 0.0
    m["server.busy_replies"] = busy_replies
    m["qual.load_s"] = reqs[0].total("qual.load") if 0 in reqs else 0.0

    m["driver.attributed_share"] = attribution(every)
    m["driver.trace_overhead"] = ratio(result["traced_wall_s"],
                                       result["untraced_wall_s"])

    recheck = client_ms.get("recheck", [])
    m["recheck_p99_ms"] = percentile(recheck, 99)
    for kind in ("infer", "run", "prove"):
        vals = client_ms.get(kind, [])
        m[kind + "_p50_ms"] = statistics.median(vals) if vals else 0.0
    return m


def percentile(values, q):
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    s = sorted(values)
    rank = int(-(-q * len(s) // 100))  # ceil(q/100 * n)
    return s[min(len(s), max(1, rank)) - 1]
