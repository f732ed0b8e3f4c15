"""The traced run: per-layer metrics and a Chrome trace.

`pbtool trace` calls each layer's public functions in-process on one
round of the workload's inputs and records spans around those calls.
This module runs it, runs the binary on the same operations to learn
their wall time (and checks those answers like the timed runs do), and
reduces both to the per-layer metrics of BENCHMARK.json:

- a layer's *_ms metric is the summed self time of its spans (span
  minus the time its child spans cover), in milliseconds;
- server.overhead_ms is the median over requests of the supervisor's
  submit-to-outcome time minus Worker.execute time on the same request;
- incr.warm_to_scratch is Engine.reanalyze time over the scratch solves
  of the same aligned edits;
- structcast.unaccounted_ms is the median over operations of the
  binary's wall time minus the layer spans of the same operation.

The traced run never feeds the end-to-end numbers.
"""

import collections
import json
import os
import statistics

# span name -> per-layer metric
SELF_MS = {
    "cfront.preproc": "cfront.preproc_ms",
    "cfront.parse": "cfront.parse_ms",
    "cfront.typecheck": "cfront.typecheck_ms",
    "norm.lower": "norm.lower_ms",
    "core.solve": "core.solve_ms",
    "core.solve_tracked": "core.solve_tracked_ms",
    "core.summarize": "core.summarize_ms",
    "core.report": "core.report_ms",
    "incr.align": "incr.align_ms",
    "incr.reanalyze": "incr.reanalyze_ms",
    "store.key": "store.key_ms",
    "store.encode": "store.encode_ms",
    "store.decode": "store.decode_ms",
    "server.execute": "server.execute_ms",
}
ID_STRIDE = 10 ** 7


def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def self_times(spans):
    child = collections.defaultdict(float)
    for s in spans:
        if s["parent"]:
            child[s["parent"]] += s["t1"] - s["t0"]
    return {s["id"]: (s["t1"] - s["t0"]) - child[s["id"]] for s in spans}


def op_layer_time(spans, names):
    """{op id: summed duration of its operation span's direct children},
    for operation spans named in `names`, in operation order."""
    tops = [s for s in spans if s["parent"] == 0 and s["name"] in names]
    kids = collections.defaultdict(float)
    for s in spans:
        kids[s["parent"]] += s["t1"] - s["t0"]
    return [(s["name"], s["op"], kids[s["id"]], s["t1"] - s["t0"]) for s in tops]


def run_traced(rb, workload, d, seed, job):
    """One `pbtool trace` process: (spans, counters)."""
    spans_path = os.path.join(d, "spans-%d.jsonl" % job)
    counters = json.loads(rb.run_tool(
        ["trace", workload, "--seed", str(seed), "--out", d, "--spans", spans_path,
         "--workers", str(rb.WORKERS), "--job", str(job)], cwd=d))
    base = job * ID_STRIDE
    spans = load_spans(spans_path)
    for s in spans:
        s["id"] += base
        s["op"] += base
        if s["parent"]:
            s["parent"] += base
    return spans, counters


def traced_and_timed(rb, workload, d, seed):
    """The traced pass and the binary's wall time on the same operations,
    run close together (cold-scale job by job) so that drift in the
    host's speed hits both alike. Returns (tally, spans, counters, walls)."""
    tally, spans, counters, walls = rb.Tally(), [], {}, []

    def merge(got):
        for name, v in got.items():
            both = max if name == "core.top_heap_mb" else (lambda a, b: a + b)
            counters[name] = both(counters.get(name, 0.0), v)

    if workload == "cold-scale":
        man = rb.gen("cold-scale", seed, d)
        refs = rb.references([tuple(j) for j in man["rounds"][0]], d, "naive")
        for k, (spec, inst) in enumerate(man["rounds"][0]):
            sp, got = run_traced(rb, workload, d, seed, k)
            spans += sp
            merge(got)
            dt, rc, _, ans = rb.analyze(d, spec, inst)
            tally.add(rc, ans, refs.get((spec, inst)))
            walls.append(dt)
    elif workload == "edit-stream":
        man = rb.gen("edit-stream", seed, d, 0)
        base = open(os.path.join(d, man["base"])).read()
        answers = []
        n = len(man["sessions"])
        for i, s in enumerate(man["sessions"]):
            sp, got = run_traced(rb, workload, d, seed, i)
            spans += sp
            merge(got)
            path = "work-%d.c" % i
            with open(os.path.join(d, path), "w") as f:
                f.write(base)
            sess = rb.Session(d, path, s["instance"])
            sess.ready.wait()
            walls.append((sess.t_ready or rb.now()) - sess.t0)
            got = []
            for v in s["versions"]:
                dt, ans = sess.edit(open(os.path.join(d, v["spec"])).read())
                walls.append(dt)
                got.append((v["spec"], s["instance"], s["known_defect"], ans))
            rc, _ = sess.close()
            answers += [(rc,) + g for g in got]
        for i in range(n):
            sp, got = run_traced(rb, workload, d, seed, n + i)
            spans += sp
            merge(got)
        tally = rb.check_edits(answers, d)
    else:
        man = rb.gen("serve-mix", seed, d)
        reqs = [tuple(r) for r in man["setup"]] + [
            tuple(r[:2]) for block in man["rounds"][:man["traced_blocks"]] for r in block]
        refs = rb.references(reqs, d, "naive")
        for part in (0, 1):  # the layers, then the server
            sp, got = run_traced(rb, workload, d, seed, part)
            spans += sp
            merge(got)
        # one request in flight, so each latency is that request's own
        fleet = rb.Fleet(d, os.path.join(d, "store-cli"), outstanding=1)
        out = fleet.run(reqs)
        rc, _ = fleet.close()
        for req, dt, ans in out:
            tally.add(rc, ans, refs.get(req))
            walls.append(dt)
    return tally, spans, counters, walls


def trace_workload(rb, workload, seed, tid):
    """Run the traced pass of one workload: (tally, metrics, chrome events)."""
    bench = rb.bench_json()
    d = rb.workdir(workload + "-trace")
    tally, spans, counters, walls = traced_and_timed(rb, workload, d, seed)

    metrics = {m["name"]: (0.0, m["unit"]) for m in bench["per_layer"]}
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for name, v in counters.items():
        metrics[name] = (v, units[name])
    selfs = self_times(spans)
    for s in spans:
        if s["name"] in SELF_MS:
            key = SELF_MS[s["name"]]
            metrics[key] = (metrics[key][0] + selfs[s["id"]] * 1e3, "ms")
    req = [s["t1"] - s["t0"] for s in spans if s["name"] == "server.request"]
    exe = [s["t1"] - s["t0"] for s in spans if s["name"] == "server.execute"]
    if req:
        metrics["server.overhead_ms"] = (
            statistics.median(r - e for r, e in zip(req, exe)) * 1e3, "ms")
    if metrics["core.solve_ms"][0] and metrics["incr.reanalyze_ms"][0]:
        metrics["incr.warm_to_scratch"] = (
            metrics["incr.reanalyze_ms"][0] / metrics["core.solve_ms"][0], "ratio")

    ops = op_layer_time(spans, {"analyze", "setup", "edit", "request"})
    if len(ops) != len(walls):
        raise rb.Fatal("traced %d operations but timed %d" % (len(ops), len(walls)))
    rows = [(name, op, wall, layers) for (name, op, layers, _), wall in zip(ops, walls)]
    metrics["structcast.unaccounted_ms"] = (
        statistics.median(w - l for _, _, w, l in rows) * 1e3, "ms")
    table = os.path.join(rb.WORK, "trace-%s-ops.tsv" % workload)
    with open(table, "w") as f:
        f.write("op\tkind\tcli_ms\tlayers_ms\tshare\n")
        for name, op, w, l in rows:
            f.write("%d\t%s\t%.3f\t%.3f\t%.3f\n" % (op, name, w * 1e3, l * 1e3, l / w))
    by_kind = collections.defaultdict(lambda: [0, 0.0, 0.0])
    for name, _, w, l in rows:
        by_kind[name][0] += 1
        by_kind[name][1] += w
        by_kind[name][2] += l
    print("%-10s %5s %12s %12s %7s" % ("operation", "n", "cli_ms", "layers_ms", "share"))
    for name, (n, w, l) in sorted(by_kind.items()):
        print("%-10s %5d %12.3f %12.3f %7.3f" % (name, n, w * 1e3, l * 1e3, l / w))
    print("per-operation shares: %s" % os.path.relpath(table, rb.ROOT))
    return tally, metrics, chrome_events(spans, tid)


def chrome_events(spans, tid):
    evs = []
    for s in spans:
        ev = {"name": s["name"], "pid": 1, "tid": tid, "ts": s["t0"] * 1e6,
              "args": {"op": s["op"], "parent": s["parent"]}}
        evs.append(dict(ev, ph="X", dur=(s["t1"] - s["t0"]) * 1e6))
    return evs


def write_chrome(path, events, workloads):
    origin = min((e["ts"] for e in events), default=0.0)
    for e in events:
        e["ts"] = round(e["ts"] - origin, 3)
        if "dur" in e:
            e["dur"] = round(e["dur"], 3)
    meta = [{"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
             "args": {"name": w}} for tid, w in enumerate(workloads)]
    with open(path, "w") as f:
        json.dump({"traceEvents": meta + events, "displayTimeUnit": "ms"}, f)


def traced_run(rb, workload, seed):
    tid = rb.WORKLOADS.index(workload)
    tally, metrics, events = trace_workload(rb, workload, seed, tid)
    path = os.path.join(rb.WORK, "trace-%s.json" % workload)
    write_chrome(path, events, rb.WORKLOADS)
    print("Chrome trace: %s" % os.path.relpath(path, rb.ROOT))
    return tally, metrics
