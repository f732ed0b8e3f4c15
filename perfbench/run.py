#!/usr/bin/env python3
"""End-to-end benchmark of the structcast binary.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py refs                 remake every naive reference
    python3 perfbench/run.py selftest             show the checker's failure cases
    python3 perfbench/run.py steady --runs K [--workload W ...]
    python3 perfbench/run.py trace-all --seed N   one Chrome trace, a track per workload

Workloads: cold-scale, edit-stream, serve-mix (see perfbench/README.md).
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Everything is built from source
and written under .bench_build/ in the checkout.
"""

import argparse
import collections
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DUNE_DIR = os.path.join(BUILD, "dune")
WORK = os.path.join(BUILD, "perfbench")
CACHE = os.path.join(WORK, "refcache")
BIN = os.path.join(DUNE_DIR, "default", "bin", "structcast.exe")
TOOL = os.path.join(DUNE_DIR, "default", "perfbench", "tool", "pbtool.exe")

sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import check  # noqa: E402

WORKLOADS = ["cold-scale", "edit-stream", "serve-mix"]
# Wall-clock and step budgets off: no answer depends on the machine.
BUDGET_OFF = ["--timeout-ms", "0", "--max-steps", "0"]
# serve workers (one request in flight per worker) and reference
# processes: one per core of a 2-core host, never more than nproc
WORKERS = max(1, min(2, len(os.sched_getaffinity(0))))
SERVE_SETUPS = 3
COLD_STARTUPS = 20

now = time.perf_counter


class Fatal(Exception):
    pass


# ---------------------------------------------------------------------
# Processes: every child is reaped with wait4, whose rusage carries the
# peak resident set of the child and of the children it reaped itself
# (serve's workers).
# ---------------------------------------------------------------------

LIVE = set()


def spawn(argv, cwd, stdin=False, stderr=False):
    p = subprocess.Popen(
        argv, cwd=cwd, text=True, bufsize=1,
        stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE if stderr else subprocess.DEVNULL)
    LIVE.add(p)
    return p


def reap(p):
    """Wait for p; return (exit code, peak RSS in MB)."""
    _, status, ru = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    LIVE.discard(p)
    for f in (p.stdin, p.stdout, p.stderr):
        if f:
            try:
                f.close()
            except OSError:
                pass
    return p.returncode, ru.ru_maxrss / 1024.0


def kill_all():
    for p in list(LIVE):
        try:
            p.kill()
        except OSError:
            pass
        try:
            reap(p)
        except ChildProcessError:
            LIVE.discard(p)


def run_tool(args, cwd):
    r = subprocess.run([TOOL] + args, cwd=cwd, text=True,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if r.returncode != 0:
        raise Fatal("pbtool %s failed: %s" % (" ".join(args), r.stderr.strip()))
    return r.stdout


# ---------------------------------------------------------------------
# Build, inputs and references
# ---------------------------------------------------------------------

def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not (os.path.exists(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "bin"))):
        raise Fatal("no structcast sources next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    cmd += ["build", "--root", ROOT, "--build-dir", DUNE_DIR,
            "--profile", "release", "--cache=disabled",
            "bin/structcast.exe", "perfbench/tool/pbtool.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
    except OSError as e:
        raise Fatal("cannot run dune: %s" % e)
    if r.returncode != 0:
        raise Fatal("build failed:\n" + r.stdout)


def workdir(name):
    d = os.path.join(WORK, name)
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    return d


def gen(workload, seed, d, rnd=0):
    out = run_tool(["gen", workload, "--seed", str(seed), "--round", str(rnd),
                    "--out", d], cwd=d)
    return json.loads(out)


def references(jobs, d, engine):
    """{(spec, instance): reference dict}, computed by WORKERS tool
    processes in parallel (largest inputs dealt first)."""
    def size(job):
        p = os.path.join(d, job[0])
        return os.path.getsize(p) if os.path.exists(p) else 0
    jobs = sorted(set(jobs), key=lambda j: (-size(j), j))
    parts = [jobs[i::WORKERS] for i in range(WORKERS)]
    procs = []
    for part in parts:
        if not part:
            continue
        p = subprocess.Popen([TOOL, "refs", "--engine", engine, "--cache", CACHE],
                             cwd=d, text=True, stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        LIVE.add(p)
        procs.append((p, "".join("%s\t%s\n" % j for j in part)))
    refs, errors = {}, []
    threads = []
    results = {}

    def talk(p, text):
        results[p.pid] = p.communicate(text)

    for p, text in procs:
        t = threading.Thread(target=talk, args=(p, text))
        t.start()
        threads.append(t)
    for t in threads:
        t.join()
    for p, _ in procs:
        LIVE.discard(p)
        out, err = results[p.pid]
        if p.returncode != 0:
            errors.append(err.strip())
        for line in out.splitlines():
            spec, inst, js = line.split("\t", 2)
            refs[(spec, inst)] = json.loads(js)
    if errors:
        raise Fatal("reference rejected: " + " | ".join(errors))
    return refs


def pct(xs, p):
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(p / 100.0 * len(s)) - 1)]


class Tally:
    """Attempted and failed operations. A wrong answer is a failed
    operation and also clears `correct`, except on an operation of the
    known defect (see perfbench/README.md), whose wrong answers are
    expected: there they only count as failed."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True
        self.reasons = collections.Counter()

    def add(self, rc, answer, ref, what="", known_defect=False):
        self.attempted += 1
        why = check.failure(rc, answer, ref)
        if why:
            self.failed += 1
            self.reasons[why.split(" is ")[0]] += 1
            if why.startswith("field ") and not known_defect:
                self.correct = False
                print("wrong answer %s: %s" % (what, why), file=sys.stderr)


# ---------------------------------------------------------------------
# cold-scale: one `analyze` process at a time over the size ladder
# ---------------------------------------------------------------------

def analyze(d, spec, inst):
    t0 = now()
    p = spawn([BIN, "analyze", spec, "-s", inst, "--format", "json"] + BUDGET_OFF, d)
    out = p.stdout.read()
    rc, mb = reap(p)
    return now() - t0, rc, mb, check.parse(out.strip().splitlines()[-1] if out.strip() else "")


def cold_scale(seconds, seed):
    d = workdir("cold-scale")
    man = gen("cold-scale", seed, d)
    refs = references([tuple(j) for j in man["rounds"][0]], d, "naive")
    # no set-up of its own: its set-up is the binary's start-up
    starts = []
    for _ in range(COLD_STARTUPS):
        t0 = now()
        p = spawn([BIN, "--version"], d)
        p.stdout.read()
        reap(p)
        starts.append(now() - t0)
    tally, totals, slowest, lat, rss = Tally(), [], [], [], 0.0
    rows = collections.defaultdict(list)
    facts = {}
    t_start = now()
    for rnd in man["rounds"]:
        if totals and now() - t_start >= seconds:
            break
        times = []
        for spec, inst in rnd:
            dt, rc, mb, ans = analyze(d, spec, inst)
            times.append(dt)
            rss = max(rss, mb)
            rows[(spec, inst)].append(dt)
            tally.add(rc, ans, refs.get((spec, inst)))
            if ans:
                facts[(spec, inst)] = (ans.get("total_edges"), ans.get("solver_visits"))
        totals.append(sum(times))
        slowest.append(statistics.mean(sorted(times)[-len(times) // 4:]))
        lat += times
    sizes = {f["spec"]: f["size"] for f in man["files"]}
    print("%-12s %5s %-17s %9s %8s %9s" % ("input", "size", "instance", "median_s", "edges", "visits"))
    for (spec, inst), ts in sorted(rows.items(), key=lambda kv: (sizes[kv[0][0]], kv[0][1])):
        e, v = facts.get((spec, inst), (None, None))
        print("%-12s %5d %-17s %9.4f %8s %9s" % (spec, sizes[spec], inst, statistics.median(ts), e, v))
    print("rounds %d; analyze_s %.4f s (median round of %d analyses)"
          % (len(totals), statistics.median(totals), len(lat) // len(totals)))
    return tally, {"setup_s": (statistics.median(starts), "s"),
                   "p50_ms": (statistics.median(lat) * 1e3, "ms"),
                   "tail_ms": (statistics.median(slowest) * 1e3, "ms"),
                   "ops_per_s": (len(lat) / sum(totals), "1/s"),
                   "peak_rss_mb": (rss, "MB")}


# ---------------------------------------------------------------------
# edit-stream: one `watch` session per instance, single-line edits
# ---------------------------------------------------------------------

class Session:
    """A watch process whose stderr is drained by a thread; `ready`
    fires on the session's ready line."""

    def __init__(self, d, path, inst):
        self.path = os.path.join(d, path)
        self.ready = threading.Event()
        self.t_ready = None
        self.t0 = now()
        self.p = spawn([BIN, "watch", path, "-s", inst, "--format", "json"] + BUDGET_OFF,
                       d, stdin=True, stderr=True)
        self.reader = threading.Thread(target=self._drain)
        self.reader.start()

    def _drain(self):
        for line in self.p.stderr:
            if not self.ready.is_set() and line.startswith("watch:"):
                self.t_ready = now()
                self.ready.set()
        self.ready.set()

    def edit(self, content):
        with open(self.path + ".tmp", "w") as f:
            f.write(content)
        os.replace(self.path + ".tmp", self.path)
        t0 = now()
        try:
            self.p.stdin.write("\n")
            self.p.stdin.flush()
        except OSError:
            return now() - t0, None
        line = self.p.stdout.readline()
        return now() - t0, check.parse(line)

    def close(self):
        try:
            self.p.stdin.close()
        except OSError:
            pass
        self.p.stdout.read()
        self.reader.join()
        return reap(self.p)


def check_edits(answers, d):
    """Tally (exit code, spec, instance, known defect, answer) edits
    against from-scratch analyses of the same file content."""
    refs = references([(spec, inst) for _, spec, inst, _, _ in answers], d, "delta")
    tally = Tally()
    for rc, spec, inst, known, ans in answers:
        tally.add(rc, ans, refs.get((spec, inst)), "%s %s" % (spec, inst), known)
    return tally


def edit_stream(seconds, seed):
    d = workdir("edit-stream")
    lat, setups, answers, rss = [], [], [], 0.0
    measured, rnd = 0.0, 0
    while rnd == 0 or measured < seconds:
        man = gen("edit-stream", seed, d, rnd)
        versions = [[open(os.path.join(d, v["spec"])).read() for v in s["versions"]]
                    for s in man["sessions"]]
        base = open(os.path.join(d, man["base"])).read()
        t_round = now()
        sessions, setup = [], 0.0
        for i, s in enumerate(man["sessions"]):
            path = "work-%d.c" % i
            with open(os.path.join(d, path), "w") as f:
                f.write(base)
            sess = Session(d, path, s["instance"])
            sess.ready.wait()
            setup += (sess.t_ready or now()) - sess.t0
            sessions.append(sess)
        setups.append(setup)
        pending = []
        for k in range(len(versions[0])):
            for i, s in enumerate(man["sessions"]):
                dt, ans = sessions[i].edit(versions[i][k])
                lat.append(dt)
                pending.append((i, s["versions"][k]["spec"], s["instance"],
                                s["known_defect"], ans))
        codes = []
        for sess in sessions:
            rc, mb = sess.close()
            codes.append(rc)
            rss = max(rss, mb)
        measured += now() - t_round
        answers += [(codes[i], *rest) for i, *rest in pending]
        rnd += 1
    tally = check_edits(answers, d)
    print("rounds %d, edits %d; edit_p50_ms %.3f ms, edit_p90_ms %.3f ms, setup_s %.4f s"
          % (rnd, len(lat), statistics.median(lat) * 1e3, pct(lat, 90) * 1e3,
             statistics.median(setups)))
    return tally, {"setup_s": (statistics.median(setups), "s"),
                   "p50_ms": (statistics.median(lat) * 1e3, "ms"),
                   "tail_ms": (pct(lat, 90) * 1e3, "ms"),
                   "ops_per_s": (len(lat) / sum(lat), "1/s"),
                   "peak_rss_mb": (rss, "MB")}


# ---------------------------------------------------------------------
# serve-mix: one `serve --store` fleet, closed loop, one request in
# flight per worker
# ---------------------------------------------------------------------

class Fleet:
    def __init__(self, d, store, outstanding=None):
        self.outstanding = outstanding or WORKERS
        self.p = spawn([BIN, "serve", "--store", store, "--workers", str(WORKERS)]
                       + BUDGET_OFF, d, stdin=True)

    def run(self, requests):
        """Send (spec, instance, ...) requests keeping `outstanding` in flight;
        answers arrive in request order. Returns [(request, s, answer)]."""
        it = iter(requests)
        sent, out = collections.deque(), []

        def send():
            req = next(it, None)
            if req is not None:
                self.p.stdin.write("%s %s\n" % (req[0], req[1]))
                self.p.stdin.flush()
                sent.append((req, now()))

        for _ in range(self.outstanding):
            send()
        while sent:
            line = self.p.stdout.readline()
            t = now()
            req, t0 = sent.popleft()
            out.append((req, t - t0, check.parse(line)))
            if not line:
                # the fleet died: every unanswered request has failed
                out += [(r, 0.0, None) for r, _ in sent] + [(r, 0.0, None) for r in it]
                break
            send()
        return out

    def close(self):
        self.p.stdin.close()
        self.p.stdout.read()
        return reap(self.p)


def serve_mix(seconds, seed):
    d = workdir("serve-mix")
    man = gen("serve-mix", seed, d)
    tally, setups, rss = Tally(), [], 0.0
    fleets = []  # (exit code, answers) per fleet
    for k in range(SERVE_SETUPS):
        store = os.path.join(d, "store-%d" % k)
        t0 = now()
        fleet = Fleet(d, store)
        answers = fleet.run(man["setup"])
        setups.append(now() - t0)
        if k < SERVE_SETUPS - 1:
            rc, mb = fleet.close()
            fleets.append((rc, answers))
            rss = max(rss, mb)
    # whole blocks until the time is up (or the pools run out)
    blocks = 0

    def timed():
        nonlocal blocks
        for block in man["rounds"]:
            if blocks and now() - t0 >= seconds:
                return
            blocks += 1
            yield from block

    t0 = now()
    timed_out = fleet.run(timed())
    duration = now() - t0
    rc, mb = fleet.close()
    fleets.append((rc, answers + timed_out))
    rss = max(rss, mb)
    # references for what was sent, made after the fleet has stopped
    jobs = [tuple(req[:2]) for _, answers in fleets for req, _, _ in answers]
    refs = references(jobs, d, "naive")
    for rc, answers in fleets:
        for req, _, ans in answers:
            tally.add(rc, ans, refs.get(tuple(req[:2])))
    lat = [s for _, s, _ in timed_out]
    kinds = collections.defaultdict(list)
    for req, dt, ans in timed_out:
        kinds["%s/%s" % (req[2], check.store_origin(ans))].append(dt * 1e3)
    print("timed blocks %d, requests %d in %.3f s: serve_rps %.3f 1/s, request_p50_ms %.3f ms, "
          "request_p98_ms %.3f ms, setup_s %.4f s" % (
              blocks, len(lat), duration, len(lat) / duration, statistics.median(lat) * 1e3,
              pct(lat, 98) * 1e3, statistics.median(setups)))
    for kind, ms in sorted(kinds.items()):
        print("  %-18s n=%4d  median %8.3f ms  p90 %8.3f ms"
              % (kind, len(ms), statistics.median(ms), pct(ms, 90)))
    return tally, {"setup_s": (statistics.median(setups), "s"),
                   "p50_ms": (statistics.median(lat) * 1e3, "ms"),
                   "tail_ms": (pct(lat, 98) * 1e3, "ms"),
                   "ops_per_s": (len(lat) / duration, "1/s"),
                   "peak_rss_mb": (rss, "MB")}


RUNNERS = {"cold-scale": cold_scale, "edit-stream": edit_stream, "serve-mix": serve_mix}


# ---------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------

def emit(tally, metrics):
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_workload(args):
    if args.workload not in RUNNERS:
        raise Fatal("unknown workload %s" % args.workload)
    build()
    if args.trace:
        import traced
        tally, metrics = traced.traced_run(sys.modules[__name__], args.workload, args.seed)
    else:
        tally, metrics = RUNNERS[args.workload](args.seconds, args.seed)
    if tally.reasons:
        print("failed: %s" % dict(tally.reasons), file=sys.stderr)
    emit(tally, metrics)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", nargs="?", default="run",
                    choices=["run", "refs", "selftest", "steady", "trace-all"])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    try:
        if args.mode == "run":
            if not args.workload or len(args.workload) != 1:
                raise Fatal("give exactly one --workload")
            args.workload = args.workload[0]
            run_workload(args)
        else:
            import modes
            modes.main(sys.modules[__name__], args)
    except Fatal as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    finally:
        kill_all()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
