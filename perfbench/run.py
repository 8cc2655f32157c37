#!/usr/bin/env python3
"""Wall-clock benchmark of compiled SPMD execution.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds perfbench/bench.exe with dune,
runs the measurement workers it provides, and prints a table of every metric
(name, value, unit, sample count) followed, as the last line, by one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0; with --trace 1 the per-layer metrics, which come from
separate traced runs.

Workloads (two shards each, except analysis-256):
  stencil-halo       least kernel work per copy, credit and halo message:
                     control, sync and message latency show here.
  pennant-bulk       kernel- and allocation-bound, heavy per-rank state,
                     a dt min-collective every step. Its unix launch hangs
                     (frames outgrow the socketpair buffer) and is recorded
                     as a deadline failure.
  pennant-bulk-nounix
                     pennant-bulk without the unix launch, so that no
                     operation fails: every other backend measured as there.
  circuit-irregular  reduction copies over scattered sparse intersections,
                     graph drawn from the seed.
  analysis-256       compile + cold dynamic intersections of all four apps at
                     256 nodes, no execution.

Step times are marginal: over pairs of a short and a long run of the same
instance run back to back, their difference divided by the extra steps, so
warm-up and fixed costs drop out. Set-up is sampled between the pairs of the
in-process backends, so that it spans the run rather than one stretch of
host load.

A timing is the typical value of its samples at zero host steal. The host
lends this machine its CPUs, and other tenants' load takes them away for
stretches of seconds (the steal column of /proc/stat), which slows a
sample by more than the time taken: two domains wait for each other at
every step. Each sample records the steal ticks over it; the value reported
is the intercept at zero steal of the Theil-Sen line through the (steal,
value) points, which is their median when steal did not vary or there are
fewer than MIN_FIT samples (a slope through so few is not trusted). Steal
only slows a sample, so the value is kept between the fastest sample and
the median.

Every execution is checked
bitwise against the sequential interpreter and classified as matched,
mismatch, deadlock, crash or deadline; anything but matched is a failure. Intersections are checked on
a seeded sample of color pairs against a direct Index_space intersection. A
metric with no successful sample is reported missing, never as the deadline.
Socket launches (unix, tcp) run in their own worker process, which never
spawns a domain, each bounded by a deadline sized from the same workload's
in-process backends.

"correct" is false when an output differs from the reference or a trace ring
dropped events; "failed" counts every failure, hangs and crashes included.
"""

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
INPROC = ("rr", "domains", "loopback")
SOCKETS = ("unix", "tcp")
# Workload -> (instance the worker builds, socket transports launched).
WORKLOADS = {
    "stencil-halo": ("stencil-halo", SOCKETS),
    "pennant-bulk": ("pennant-bulk", SOCKETS),
    "pennant-bulk-nounix": ("pennant-bulk", ("tcp",)),
    "circuit-irregular": ("circuit-irregular", SOCKETS),
    "analysis-256": ("analysis-256", ()),
}
SHARDS = 2
STEP_PARTS = ("kernel", "copy", "sync_wait", "release")

# Shares of --seconds: the 256-node analysis, the in-process backends
# (interp, rr, domains and loopback get equal parts of it), then each
# socket transport. Every slice measures each at least once however slow
# (the in-process backends twice), and holds two windows of the analysis,
# before its in-process and its socket measurements.
SHARE = {"analysis": 0.25, "inproc": 0.6, "unix": 0.1, "tcp": 0.05}
SLICES = 4
ANALYSIS_SAMPLES = 200
MIN_FIT = 8  # samples below which a timing is their plain median

# Control costs the simulator assumes (EXPERIMENTS.md, Method), in us.
MODELLED_US = {"copy_issue": 5.0, "launch_overhead": 25.0, "shard_analysis": 25.0}

# The metrics of the JSON line: those defined on every workload that
# BENCHMARK.json lists. The table prints all of them and the rest.
END_TO_END = (
    "setup_s", "analysis_s", "seq_step_ms", "step_ms.rr", "step_ms.domains",
    "step_ms.loopback", "step_ms.tcp",
)
PER_LAYER = (
    ("apps.build_ms", "cr.compile_ms")
    + tuple("cr.phase.%s_ms" % p for p in
            ("check", "normalize", "replicate", "placement", "sync", "shard"))
    + ("cr.copies", "cr.sync_ops", "isect.shallow_ms", "isect.complete_ms",
       "isect.candidates", "isect.nonempty", "isect.useful_ratio")
    + tuple("exec.%s.%s_ms" % (b, p) for b in ("rr", "domains")
            for p in ("analyze", "init", "finalize"))
    + ("exec.loopback.init_ms",)
    + tuple("exec.%s.%s_ms" % (b, p) for b in INPROC
            for p in STEP_PARTS + ("other", "trace_overhead"))
    + ("plan.builds", "plan.replays_per_step", "plan.blit_elems_per_step",
       "plan.hit_ratio", "net.msgs_per_step", "net.bytes_per_step",
       "net.fixed_msgs", "net.fixed_bytes", "net.gather_bytes",
       "net.send_retries", "gc.minor_words_per_step", "gc.minor_gcs_per_step",
       "gc.major_gcs", "spmd.domains_speedup", "model.copy_issue_us",
       "model.launch_overhead_us", "model.shard_analysis_us")
)


class Worker:
    """A bench.exe subprocess in its own process group, read record by record
    with a deadline on each record."""

    live = set()  # running workers, stopped if the benchmark is interrupted

    def __init__(self, args):
        self.proc = subprocess.Popen([EXE] + [str(a) for a in args],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     start_new_session=True)
        self.buf = b""
        Worker.live.add(self)

    def send(self, line):
        self.proc.stdin.write(("%s\n" % line).encode())
        self.proc.stdin.flush()

    def next(self, timeout):
        """The next JSON record; None at end of output; "deadline" when none
        arrived within timeout seconds."""
        end = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            left = end - time.monotonic()
            if left <= 0:
                return "deadline"
            if select.select([fd], [], [], left)[0]:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    return None
                self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def close(self, kill=False):
        """Stop the worker and every process it forked (they share its
        process group); returns the worker's exit code."""
        if kill:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        code = self.proc.wait()
        self.proc.stdout.close()
        end = time.monotonic() + 5
        while time.monotonic() < end:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                break
            time.sleep(0.01)
        Worker.live.discard(self)
        return code


def interrupted(signum, _frame):
    for w in list(Worker.live):
        w.close(kill=True)
    sys.exit("perfbench: interrupted by signal %d" % signum)


def run_worker(args, timeout, timeout_for=None):
    """A worker's records. Each execution is announced by a "start" record;
    timeout_for(start) sizes its deadline. When it is missed, the worker is
    killed and the execution recorded as a "deadline" failure."""
    w = Worker(args)
    records, pending, limit = [], None, timeout
    while True:
        rec = w.next(limit)
        if rec is None:
            break
        if rec == "deadline":
            w.close(kill=True)
            if pending is None:
                raise RuntimeError("worker %s: no output within %gs" % (args[0], limit))
            records.append(dict(pending, kind="exec", wall_s=None, outcome="deadline",
                                detail="no result within %.1fs" % limit))
            return records
        if rec["kind"] == "start":
            pending, limit = rec, timeout_for(rec)
        else:
            pending, limit = None, timeout
            records.append(rec)
    code = w.close()
    if code != 0:
        raise RuntimeError("worker %s exited with code %s" % (args[0], code))
    return records


def median(xs):
    return statistics.median(xs) if xs else None


def steady(points):
    """The typical value of (steal ticks, value) samples at zero steal: the
    intercept of their Theil-Sen line (the median of the slopes between
    every two samples of different steal, then the median of the values
    moved along it to zero steal), kept within [fastest, median]."""
    if not points:
        return None
    slopes = [(y2 - y1) / (x2 - x1) for i, (x1, y1) in enumerate(points)
              for x2, y2 in points[i + 1:] if x2 != x1] if len(points) >= MIN_FIT else []
    m = statistics.median(slopes) if slopes else 0.0
    ys = [y for _, y in points]
    at_zero = statistics.median([y - m * x for x, y in points])
    return max(min(ys), min(statistics.median(ys), at_zero))


def steady_of(records, key):
    return steady([(r.get("steal", 0), key(r)) for r in records])


def matched(records, backend, steps):
    return [r for r in records if r["backend"] == backend and r["steps"] == steps
            and r["outcome"] == "matched"]


class Results:
    """Metric rows in print order: (name, value or None, unit, samples)."""

    def __init__(self):
        self.rows = []

    def add(self, name, unit, value, n=1):
        self.rows.append((name, value, unit, n))

    def get(self, name):
        return next((v for k, v, _, _ in self.rows if k == name), None)


class Steps:
    """Marginal per-step figures over the short/long runs of one instance."""

    def __init__(self, short, long_):
        self.short, self.long, self.delta = short, long_, long_ - short

    def paired(self, records, backend, key=lambda r: r["wall_s"]):
        """(long - short) / extra steps over the (short, long) pairs, each
        run back to back, at zero steal (see steady); and the number of
        pairs."""
        s = matched(records, backend, self.short)
        l = matched(records, backend, self.long)
        d = [(a.get("steal", 0) + b.get("steal", 0), (key(b) - key(a)) / self.delta)
             for a, b in zip(s, l)]
        return steady(d), len(d)


def scaled(pair, k):
    v, n = pair
    return (None if v is None else v * k), n


def analysis_worker(args, trace):
    return Worker(["analysis", args.instance, args.seed, ANALYSIS_SAMPLES, int(trace)])


def analysis_window(w, seconds):
    """The records of one window of an analysis worker, seconds long."""
    w.send(seconds)
    records = []
    while True:
        rec = w.next(170)
        if rec is None or rec == "deadline":
            w.close(kill=True)
            raise RuntimeError("analysis worker: no window result within 170s")
        if rec["kind"] == "done":
            return records
        records.append(rec)


def analysis_slices(args):
    """The analysis-256 workload: a fresh worker per slice, each one window;
    the compile phases are traced in the first slice only."""
    recs = []
    for k in range(SLICES):
        w = analysis_worker(args, args.trace and k == 0)
        recs += analysis_window(w, args.seconds / SLICES)
        if w.close() != 0:
            raise RuntimeError("analysis worker exited with an error")
    return recs


def analysis_results(args, res, recs):
    """setup_s (analysis-256) or analysis_s from compile + cold intersection
    records; returns the intersection checks as verification records."""
    rows = [r for r in recs if r["kind"] == "analysis"]
    apps = sorted({r["app"] for r in rows})
    of = {a: [r for r in rows if r["app"] == a] for a in apps}
    per_app = {a: steady_of(of[a], lambda r: r["compile_s"] + r["isect_s"]) for a in apps}
    reps = min(len(x) for x in of.values())
    total = sum(per_app.values())
    if args.instance == "analysis-256":
        res.add("setup_s", "s", total, reps)
        for a in apps:
            res.add("analysis_s." + a, "s", per_app[a], len(of[a]))
    else:
        res.add("analysis_s", "s", total, reps)
    checks = []
    for r in recs:
        if r["kind"] == "check":
            checks += [{"kind": "check", "outcome": "matched"}] * (r["attempted"] - r["failed"])
            checks += [{"kind": "check", "outcome": "mismatch",
                        "detail": "sampled intersections of %s" % r["app"]}] * r["failed"]
    return checks


def layer_analysis(res, recs):
    rows = [r for r in recs if r["kind"] == "analysis"]
    apps = sorted({r["app"] for r in rows})
    of = {a: [r for r in rows if r["app"] == a] for a in apps}
    reps = min(len(x) for x in of.values())

    def total(key, k=1.0):
        return sum(steady_of(of[a], lambda r: r[key]) for a in apps) * k

    first = {a: of[a][0] for a in apps}
    res.add("cr.compile_ms", "ms", total("compile_s", 1e3), reps)
    phases = {}
    for r in recs:
        if r["kind"] == "cr_phases":
            for k, v in r["self_us"].items():
                phases[k] = phases.get(k, 0.0) + v
    for p in ("check", "normalize", "replicate", "placement", "sync", "shard"):
        res.add("cr.phase.%s_ms" % p, "ms", phases.get("cr." + p, 0.0) / 1e3)
    res.add("cr.copies", "count", sum(f["copies"] for f in first.values()))
    res.add("cr.sync_ops", "count", sum(f["sync_ops"] for f in first.values()))
    res.add("isect.shallow_ms", "ms", total("shallow_s", 1e3), reps)
    res.add("isect.complete_ms", "ms", total("complete_s", 1e3), reps)
    cand = sum(f["candidates"] for f in first.values())
    nonempty = sum(f["nonempty"] for f in first.values())
    res.add("isect.candidates", "count", cand)
    res.add("isect.nonempty", "count", nonempty)
    res.add("isect.useful_ratio", "ratio", nonempty / cand if cand else None)


def exec_workload(args, res):
    """Set-up, 256-node analysis, and every backend; returns the verified
    executions and checks. The measurement is cut into SLICES rounds of
    fresh worker processes, spread over the run, so that neither one
    process's memory layout nor one stretch of host load sets a median."""
    refs = {r["steps"]: r for r in run_worker(["reference", args.instance, args.seed], 120)}
    st = Steps(*sorted(refs))
    digests = [refs[st.short]["digest"], refs[st.long]["digest"]]
    setup, analysis_recs, execs, launches = [], [], [], []
    deadline = launch_deadline(execs)  # reads execs as the slices extend it
    # The share of a transport the workload does not launch goes to the
    # in-process backends.
    inproc = SHARE["inproc"] + sum(SHARE[t] for t in SOCKETS if t not in args.sockets)
    window = args.seconds * SHARE["analysis"] / (2 * SLICES)
    # One analysis worker for the run: it builds the 256-node program once
    # and waits on its input between windows.
    analysis = analysis_worker(args, args.trace)
    for k in range(SLICES):
        analysis_recs += analysis_window(analysis, window)
        recs = run_worker(["inproc", args.instance, args.seed,
                           args.seconds * inproc / SLICES, args.trace] + digests,
                          120, lambda _: 60)
        setup += [r for r in recs if r["kind"] == "setup"]
        execs += [r for r in recs if r["kind"] == "exec"]
        analysis_recs += analysis_window(analysis, window)
        for t in args.sockets:
            # After a hang the transport is not tried again: one missed
            # deadline per run is evidence enough.
            if any(r["backend"] == t and r["outcome"] == "deadline" for r in launches):
                continue
            launches += run_worker(["launch", args.instance, args.seed, t,
                                    args.seconds * SHARE[t] / SLICES] + digests, 60, deadline)
    if analysis.close() != 0:
        raise RuntimeError("analysis worker exited with an error")

    res.add("setup_s", "s", steady_of(setup, lambda r: r["build_s"] + r["compile_s"] + r["create_s"]),
            len(setup))
    checks = analysis_results(args, res, analysis_recs)
    timed = [r for r in execs if not r.get("traced")]
    # The reference runs are one more interpreter pair.
    interp = [dict(refs[n], backend="interp", outcome="matched")
              for n in (st.short, st.long)] + timed
    res.add("seq_step_ms", "ms", *scaled(st.paired(interp, "interp"), 1e3))
    for b in INPROC:
        res.add("step_ms." + b, "ms", *scaled(st.paired(timed, b), 1e3))
    for t in args.sockets:
        step, n = st.paired(launches, t)
        res.add("step_ms." + t, "ms", None if step is None else step * 1e3, n)
        shorts = [r["wall_s"] for r in matched(launches, t, st.short)]
        fixed = median(shorts) - st.short * step if step is not None else None
        res.add("fixed_s." + t, "s", fixed, n)

    if args.trace:
        res.add("apps.build_ms", "ms", steady_of(setup, lambda r: r["build_s"]) * 1e3,
                len(setup))
        layer_analysis(res, analysis_recs)
        layer_exec(res, st, timed, [r for r in execs if r.get("traced")], launches,
                   refs[st.long]["tasks_per_step"])
    return checks + execs + launches


def launch_deadline(execs):
    """Deadline of a socket launch: generous against the slowest compiled
    in-process backend on the same instance (tcp runs 10-35x slower than
    unix), so that a hang costs seconds."""
    def deadline(start):
        timed = [r for r in execs if not r.get("traced")]
        slowest = max(median([r["wall_s"] for r in matched(timed, b, start["steps"])]) or 0.0
                      for b in INPROC)
        return 3.0 + 25.0 * slowest if slowest else 30.0
    return deadline


def layer_exec(res, st, timed, traced, launches, tasks):
    longs = matched(timed, "rr", st.long)
    res.add("plan.builds", "count", median([r["plan_builds"] for r in longs]), len(longs))
    res.add("plan.replays_per_step", "count", *st.paired(timed, "rr", lambda r: r["plan_replays"]))
    res.add("plan.blit_elems_per_step", "count", *st.paired(timed, "rr", lambda r: r["blit_volume"]))
    res.add("plan.hit_ratio", "ratio",
            median([1 - r["plan_builds"] / r["plan_replays"] for r in longs if r["plan_replays"]]),
            len(longs))

    # Wire traffic by phase. Per step: the loopback step difference, which
    # is exact. Fixed (init + finalize): what remains of the short run.
    # Gather: what a socket launch sends beyond the loopback run of the
    # same step count.
    msgs, n = st.paired(timed, "loopback", lambda r: r["msgs"])
    nbytes, _ = st.paired(timed, "loopback", lambda r: r["bytes"])
    res.add("net.msgs_per_step", "count", msgs, n)
    res.add("net.bytes_per_step", "B", nbytes, n)
    lb_short = matched(timed, "loopback", st.short)
    fixed = [(r["msgs"] - st.short * msgs, r["bytes"] - st.short * nbytes)
             for r in lb_short] if msgs is not None else []
    res.add("net.fixed_msgs", "count", median([m for m, _ in fixed]), len(fixed))
    res.add("net.fixed_bytes", "B", median([b for _, b in fixed]), len(fixed))
    gather = []
    for t in SOCKETS:
        for steps in (st.short, st.long):
            lb = median([r["bytes"] for r in matched(timed, "loopback", steps)])
            gather += [r["bytes"] - lb for r in matched(launches, t, steps) if lb is not None]
    res.add("net.gather_bytes", "B", median(gather), len(gather))
    res.add("net.send_retries", "count", sum(r.get("retries", 0) for r in launches),
            len(launches))

    res.add("gc.minor_words_per_step", "words", *st.paired(timed, "rr", lambda r: r["minor_words"]))
    res.add("gc.minor_gcs_per_step", "count", *st.paired(timed, "rr", lambda r: r["minor_gcs"]))
    res.add("gc.major_gcs", "count", median([r["major_gcs"] for r in longs]), len(longs))
    rr, dom = res.get("step_ms.rr"), res.get("step_ms.domains")
    res.add("spmd.domains_speedup", "ratio", rr / dom if rr and dom else None)

    # Per-step self time by layer. Spans are summed over the shard tracks
    # and divided by how many shards run at once (1 for the cooperative rr
    # and loopback steppers, 2 for domains), comparable with the traced wall
    # time per step; other_ms is what the parts leave of it.
    for b in INPROC:
        conc = SHARDS if b == "domains" else 1

        def part(cat):
            return lambda r: r["self_us"].get(cat, 0.0) / 1e3 / conc

        for cat in STEP_PARTS:
            res.add("exec.%s.%s_ms" % (b, cat), "ms", *st.paired(traced, b, part(cat)))
        wall, n = st.paired(traced, b, lambda r: r["wall_s"] * 1e3)
        parts = [res.get("exec.%s.%s_ms" % (b, c)) for c in STEP_PARTS]
        res.add("exec.%s.other_ms" % b, "ms",
                wall - sum(parts) if wall is not None and None not in parts else None, n)
        untraced = res.get("step_ms." + b)
        res.add("exec.%s.traced_step_ms" % b, "ms", wall, n)
        res.add("exec.%s.trace_overhead_ms" % b, "ms",
                wall - untraced if wall is not None and untraced is not None else None, n)
        mine = [r for r in traced if r["backend"] == b and r["outcome"] == "matched"]
        for cat in ("init",) if b == "loopback" else ("analyze", "init", "finalize"):
            res.add("exec.%s.%s_ms" % (b, cat), "ms",
                    steady_of(mine, lambda r: r["self_us"].get(cat, 0.0) / 1e3), len(mine))
        for t in sorted({t for r in mine for t in r["task_us"]}):
            res.add("exec.%s.kernel.%s_ms" % (b, t), "ms",
                    *st.paired(traced, b, lambda r, t=t: r["task_us"].get(t, 0.0) / 1e3 / conc))

    # Measured counterparts of the simulator's control costs (rr): copy time
    # per (source, destination) transfer; executor time outside kernel
    # bodies and copies per leaf task; block analysis per shard.
    def ratio(num, den, k):
        return num * k / den if num is not None and den else None

    rr_parts = [res.get("exec.rr.%s_ms" % c) for c in ("sync_wait", "release", "other")]
    n = len(matched(traced, "rr", st.long))
    res.add("model.copy_issue_us", "us",
            ratio(res.get("exec.rr.copy_ms"), res.get("plan.replays_per_step"), 1e3), n)
    res.add("model.launch_overhead_us", "us",
            ratio(None if None in rr_parts else sum(rr_parts), tasks, 1e3), n)
    res.add("model.shard_analysis_us", "us", ratio(res.get("exec.rr.analyze_ms"), SHARDS, 1e3), n)


def read(path):
    try:
        with open(path) as f:
            return f.read().split()
    except OSError:
        return ["?"]


def host_facts():
    """The facts the unix hang threshold and the tcp figures depend on."""
    return "nproc=%s wmem_default=%s tcp_wmem=%s" % (
        os.cpu_count(), "/".join(read("/proc/sys/net/core/wmem_default")),
        "/".join(read("/proc/sys/net/ipv4/tcp_wmem")))


def cpu_ticks():
    """(total, steal) jiffies of all CPUs, from /proc/stat."""
    fields = read("/proc/stat")
    if fields[0] != "cpu":
        return None
    ticks = [int(x) for x in fields[1:9]]
    return sum(ticks), ticks[7]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    args.instance, args.sockets = WORKLOADS[args.workload]
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, interrupted)

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the root of a source checkout "
                 "(dune-project and lib/ not found)")
    if subprocess.run(["dune", "build", "--root", ".", "./perfbench/bench.exe"],
                      stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")

    res, runs, ticks0 = Results(), [], cpu_ticks()
    try:
        ocaml = run_worker(["info"], 60)[0]["ocaml"]
        if args.instance == "analysis-256":
            recs = analysis_slices(args)
            runs = analysis_results(args, res, recs)
            if args.trace:
                builds = {r["app"]: r["build_s"] for r in recs if r["kind"] == "analysis"}
                res.add("apps.build_ms", "ms", sum(builds.values()) * 1e3)
                layer_analysis(res, recs)
        else:
            runs = exec_workload(args, res)
    except (RuntimeError, ValueError, KeyError) as e:
        for w in list(Worker.live):
            w.close(kill=True)
        sys.exit("perfbench: %s" % e)

    failures = [r for r in runs if r["outcome"] != "matched"]
    dropped = [r for r in runs if r.get("dropped", 0) > 0]
    # Over the compiled executions (checks of the intersections where
    # nothing executes); the interpreter's own runs are the reference.
    basis = [r for r in runs if r["kind"] == "exec" and r["backend"] != "interp"] or runs
    res.add("fail_frac", "ratio",
            sum(r["outcome"] != "matched" for r in basis) / len(basis), len(basis))

    ticks1 = cpu_ticks()
    steal = ("%.1f%%" % (100.0 * (ticks1[1] - ticks0[1]) / max(1, ticks1[0] - ticks0[0]))
             if ticks0 and ticks1 else "?")
    print("# perfbench %s seed=%d seconds=%g trace=%d ocaml=%s %s cpu_steal=%s" % (
        args.workload, args.seed, args.seconds, args.trace, ocaml, host_facts(), steal))
    for name, value, unit, n in res.rows:
        shown = "missing" if value is None else "%.6g" % value
        print("%-36s %14s %-6s n=%d" % (name, shown, unit, n))
    if args.trace and args.instance != "analysis-256":
        for key, us in MODELLED_US.items():
            print("%-36s %14.6g %-6s modelled" % ("model.%s_us" % key, us, "us"))
    groups = {}
    for r in failures:
        groups.setdefault((r["kind"], r.get("backend", "-"), r["outcome"]), []).append(r)
    for (kind, backend, outcome), rs in groups.items():
        print("# failure: %d x %s %s %s: %s" % (
            len(rs), kind, backend, outcome, rs[0].get("detail", "")[:300]))
    for r in dropped:
        print("# failure: trace ring dropped %d events (%s)" % (r["dropped"], r["backend"]))

    wanted = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": not any(r["outcome"] == "mismatch" for r in failures) and not dropped,
        "attempted": len(runs),
        "failed": len(failures) + len(dropped),
        "metrics": {name: {"value": v, "unit": u} for name, v, u, _ in res.rows
                    if name in wanted and v is not None},
    }))


if __name__ == "__main__":
    main()
