"""The benchmark's other modes: refs, selftest, steady and trace-all."""

import json
import os
import shutil
import statistics
import subprocess
import sys


# ---------------------------------------------------------------------
# refs: remake every naive reference from scratch
# ---------------------------------------------------------------------

def refs(rb, args):
    rb.build()
    shutil.rmtree(rb.CACHE, ignore_errors=True)
    for workload in ("cold-scale", "serve-mix"):
        d = rb.workdir("refs-" + workload)
        out = rb.run_tool(["refjobs", workload, "--out", d], cwd=d)
        jobs = [tuple(line.split("\t")) for line in out.splitlines() if line]
        t0 = rb.now()
        got = rb.references(jobs, d, "naive")
        print("%s: %d references (naive engine, interpreter-checked) in %.1f s"
              % (workload, len(got), rb.now() - t0))


# ---------------------------------------------------------------------
# selftest: each failure kind the checker must count
# ---------------------------------------------------------------------

def selftest(rb, args):
    import check
    rb.build()
    d = rb.workdir("selftest")
    # a small real input and its naive reference
    rb.run_tool(["refjobs", "cold-scale", "--out", d], cwd=d)
    spec, inst = "cold-400.c", "offsets"
    ref = rb.references([(spec, inst)], d, "naive")[(spec, inst)]
    _, rc, _, good = rb.analyze(d, spec, inst)
    cases = []
    cases.append(("correct answer (control)", rc, good, False))
    altered = dict(good, total_edges=good["total_edges"] + 1)
    cases.append(("one fixpoint field altered", 0, altered, True))
    # a real degraded answer: a per-object cell budget of 1
    t = rb.spawn([rb.BIN, "analyze", spec, "-s", inst, "--format", "json",
                  "--max-cells-per-object", "1"] + rb.BUDGET_OFF, d)
    out = t.stdout.read()
    drc, _ = rb.reap(t)
    degraded = check.parse(out)
    cases.append(("degraded answer (exit %d)" % drc, drc, degraded, True))
    cases.append(("degraded answer, exit code ignored", 0, degraded, True))
    # a real error diagnostic: one statement line broken
    with open(os.path.join(d, spec)) as f:
        lines = f.read().split("\n")
    at = lines.index("void main(void) {") + 1
    lines[at] = lines[at].rstrip(";") + " +;"
    with open(os.path.join(d, "broken.c"), "w") as f:
        f.write("\n".join(lines))
    _, brc, _, broken = rb.analyze(d, "broken.c", inst)
    cases.append(("error diagnostic (exit %d)" % brc, brc, broken, True))
    cases.append(("error diagnostic, exit code ignored", 0, broken, True))
    cases.append(("non-zero exit, answer correct", 3, good, True))
    # real shed and quarantined serve responses
    t = rb.spawn([rb.BIN, "serve", "--workers", "1", "--max-pending", "1",
                  "--attempts", "1", "--faults", "crash@job1"] + rb.BUDGET_OFF,
                 d, stdin=True)
    t.stdin.write("".join("%s %s\n" % (spec, inst) for _ in range(6)))
    t.stdin.close()
    responses = [check.parse(line) for line in t.stdout.read().splitlines()]
    src, _ = rb.reap(t)
    by_status = {}
    for r in responses:
        by_status.setdefault((r or {}).get("status"), r)
    for status in ("quarantined", "shed"):
        if status not in by_status:
            raise rb.Fatal("selftest: serve produced no %s response" % status)
        cases.append(("serve %s response (fleet exit %d)" % (status, src), 0,
                      by_status[status], True))
    ok = True
    for name, code, answer, want_fail in cases:
        why = check.failure(code, answer, ref)
        counted = why is not None
        good_case = counted == want_fail
        ok &= good_case
        print("%-44s %-8s %s" % (name, "failed" if counted else "passed",
                                 "ok" if good_case else "WRONG") + ("  (%s)" % why if why else ""))
    if not ok:
        raise rb.Fatal("checker self-test failed")
    print("checker self-test: every failure kind is counted")


# ---------------------------------------------------------------------
# steady: K runs per workload, quartile spread against each bound
# ---------------------------------------------------------------------

def steady(rb, args):
    bench = rb.bench_json()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    rb.build()
    for w in workloads:
        values, fails = {}, []
        for k in range(args.runs):
            seed = args.seed + k
            t0 = rb.now()
            r = subprocess.run([sys.executable, os.path.join(rb.HERE, "run.py"),
                                "--workload", w, "--seed", str(seed),
                                "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                               stdout=subprocess.PIPE, text=True)
            if r.returncode != 0:
                raise rb.Fatal("run %s seed %d exited %d" % (w, seed, r.returncode))
            res = json.loads(r.stdout.strip().splitlines()[-1])
            fails.append((res["failed"], res["attempted"], res["correct"]))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("  %s seed %d (%.0f s): %s" % (w, seed, rb.now() - t0, " ".join(
                "%s=%.4g" % (n, m["value"]) for n, m in sorted(res["metrics"].items()))),
                flush=True)
        print("%s: %d runs; failed/attempted %s" % (w, args.runs, fails))
        print("  %-16s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
        for name, xs in sorted(values.items()):
            q1, _, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            print("  %-16s %12.4f %12.4f %12.4f %8.4f %6s" % (
                name, med, q1, q3, (q3 - q1) / med, bounds.get(name)))


# ---------------------------------------------------------------------
# trace-all: the traced run of every workload into one Chrome trace
# ---------------------------------------------------------------------

def trace_all(rb, args):
    """Each workload's traced run, twice: the Chrome trace of the first,
    and a check that every count repeats exactly in the second."""
    import traced
    rb.build()
    events, metrics, repeat = [], {}, True
    for tid, w in enumerate(rb.WORKLOADS):
        _, m, evs = traced.trace_workload(rb, w, args.seed, tid)
        _, again, _ = traced.trace_workload(rb, w, args.seed, tid)
        events += evs
        metrics[w] = {k: v for k, (v, _) in m.items()}
        for k, (v, unit) in m.items():
            if unit == "count" and again[k][0] != v:
                repeat = False
                print("%s: %s was %s, then %s" % (w, k, v, again[k][0]))
    path = os.path.join(rb.WORK, "trace-all.json")
    traced.write_chrome(path, events, rb.WORKLOADS)
    print(json.dumps(metrics, indent=1, sort_keys=True))
    print("trace written to %s" % os.path.relpath(path, rb.ROOT))
    if not repeat:
        raise rb.Fatal("traced counts did not repeat")
    print("every traced count repeated exactly")


def main(rb, args):
    {"refs": refs, "selftest": selftest, "steady": steady,
     "trace-all": trace_all}[args.mode](rb, args)
