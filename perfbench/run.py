#!/usr/bin/env python3
"""The repo benchmark: real user surfaces, checked outputs, one JSON line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It builds pofl_cli and the layer-timing tool pofl_bench_trace (perfbench/
CMakeLists.txt) into $CARGO_TARGET_DIR (default .bench_build), exports the
synthetic zoo with `pofl_cli export-zoo` into a temporary directory there,
runs the workload and prints, as the last line of stdout,

    {"correct": b, "attempted": n, "failed": n, "metrics": {name: {"value", "unit"}}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
separate traced run reports the per-layer ones. Every output check that
fails counts as a failed operation, and any failure makes the exit code 1.
perfbench/README.md documents the workloads, the metrics and the
layer -> end-to-end metric -> workload map.
"""

import argparse
import json
import os
import random
import re
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

HUB40 = "synth-hubring-40-214"
FATTREE = "synth-fattree-k6-45-108"
HUB67 = "synth-hubring-67-237"

E2E_UNITS = {
    "setup_s": "s",
    "scen_per_s": "1/s",
    "procs_scen_per_s": "1/s",
    "req_per_s": "1/s",
    "lat_p50_ms": "ms",
    "lat_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

LAYER_UNITS = {
    "sim.source.busy_s": "s",
    "sim.source.groups_per_batch": "count",
    "graph.promise.oracle_busy_s": "s",
    "graph.promise.uf_busy_s": "s",
    "graph.promise.held_ratio": "ratio",
    "graph.promise.oracle_hit_ratio": "ratio",
    "routing.core.busy_s": "s",
    "routing.core.ns_per_packet": "ns",
    "routing.core.cold_ns_per_packet": "ns",
    "routing.core.chunk_fill": "count",
    "graph.stretch.busy_s": "s",
    "graph.stretch.bfs_runs": "count",
    "graph.stretch.distinct_keys": "count",
    "graph.stretch.reuse_ratio": "ratio",
    "sim.tally.busy_s": "s",
    "sim.json.write_s": "s",
    "sim.json.parse_s": "s",
    "sim.json.bytes": "bytes",
    "orchestrate.shard_wall_max_s": "s",
    "orchestrate.shard_skew": "ratio",
    "orchestrate.merge_s": "s",
    "orchestrate.overhead_s": "s",
    "serve.handle_cached_ms": "ms",
    "serve.handle_cold_ms": "ms",
    "serve.transfer_ms": "ms",
    "serve.response_bytes": "bytes",
    "serve.cache_hit_ratio": "ratio",
    "serve.cache_evictions": "count",
    "serve.threads_end": "count",
    "serve.vm_size_mb_end": "MB",
    "search.nodes_expanded": "count",
    "search.leaves_verified": "count",
    "search.pruned_bound": "count",
    "search.fallback_queries": "count",
    "search.fallback_time_share": "ratio",
    "e2e.lat_tail_percentile": "%",
    "e2e.lat_samples": "count",
    "trace.overhead_s": "s",
    "trace.replay_wall_ratio": "ratio",
}

# Per-CLI-call and per-request limits. A run must end within 180 s, so no
# single operation may take longer than this.
CLI_TIMEOUT_S = 120.0
MIN_DEFEAT_LIMIT_S = 20.0

# The traced replay re-codes the engine's single-thread loop as it stands
# when the benchmark was written. A replay wall time further than this share
# away from the CLI's --json wall is flagged: the engine may have moved away
# from the replay, and the per-layer figures may no longer describe it.
REPLAY_DRIFT = 0.25


class BenchError(Exception):
    """The benchmark cannot run at all (no result line is printed)."""


class Tally:
    """Attempted and failed operations, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.lock = threading.Lock()

    def op(self, ok, reason=""):
        with self.lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.reasons) < 20:
                    self.reasons.append(reason)
        return ok

    def check(self, ok, reason):
        """An output check: counted as an operation of its own."""
        return self.op(ok, "check failed: " + reason)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def tail_latency(samples):
    """Highest percentile with at least 10 samples beyond it, and never
    below the upper median.

    Returns (value, percentile, sample_count). Below 22 samples no
    percentile above the median has 10 samples beyond it, so the upper
    median is reported; at 21 samples the two rules agree. Reporting the
    maximum there instead made the value jump whenever a run fit one sweep
    fewer.
    """
    s = sorted(samples)
    n = len(s)
    i = max(n - 11, n // 2)
    return s[i], 100.0 * (i + 1) / n, n


def chunked_rate(events, per=100):
    """Median over chunks of `per` consecutive completions of the rate
    (sum of amounts) / (time the chunk took).

    events are (completion_time, amount) pairs. The median over chunks is
    robust to bursts of host contention shorter than half of the run,
    which a plain total / wall is not, and unlike counts per fixed window it
    is not rounded to whole requests.
    """
    events = sorted(events)
    rates = []
    for i in range(0, len(events) - per, per):
        span = events[i + per][0] - events[i][0]
        if span > 0:
            rates.append(sum(a for _, a in events[i + 1:i + per + 1]) / span)
    if not rates:
        span = events[-1][0] - events[0][0]
        return sum(a for _, a in events[1:]) / span if span > 0 else 0.0
    return statistics.median(rates)


# ---- build and inputs --------------------------------------------------------


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def check_source():
    for needed in ("CMakeLists.txt", "src", os.path.join("examples", "pofl_cli.cpp"),
                   os.path.join("tests", "baselines", "cli_zoo_procs.json"),
                   os.path.join("tests", "baselines", "cli_fattree_exhaustive.json")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError("source tree incomplete: %s is missing" % needed)
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")


def build(out_dir):
    cmake_dir = os.path.join(out_dir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    with open(log_path, "w") as logf:
        steps = []
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", cmake_dir, "--target", "pofl_cli", "pofl_bench_trace",
                      "-j", str(min(4, os.cpu_count() or 1))])
        for step in steps:
            if subprocess.call(step, stdout=logf, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: %s" % " ".join(step))
    cli = os.path.join(cmake_dir, "pofl", "pofl_cli")
    tracer = os.path.join(cmake_dir, "pofl_bench_trace")
    for exe in (cli, tracer):
        if not os.access(exe, os.X_OK):
            raise BenchError("build produced no %s" % exe)
    return cli, tracer


class Proc:
    """Result of one timed child process."""

    def __init__(self, rc, wall, maxrss_kb, timed_out):
        self.rc = rc
        self.wall = wall
        self.maxrss_kb = maxrss_kb
        self.timed_out = timed_out

    @property
    def ok(self):
        return self.rc == 0 and not self.timed_out


def run_proc(argv, work, stdout_path=None, cpu=None):
    """Runs argv in its own process group, pinned to `cpu` if given; wait4
    gives its peak RSS.

    The peak RSS from wait4 covers the process and every descendant it
    reaped, so a `--procs` parent reports its largest shard worker too.
    On timeout the whole group is killed and reaped.
    """
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    err = open(os.path.join(work, "stderr.log"), "ab")
    try:
        start = time.perf_counter()
        pin = (lambda: os.sched_setaffinity(0, {cpu})) if cpu is not None else None
        p = subprocess.Popen(argv, stdout=out, stderr=err, start_new_session=True, cwd=work,
                             preexec_fn=pin)
        expired = threading.Event()

        def kill():
            expired.set()
            try:
                os.killpg(p.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(CLI_TIMEOUT_S, kill)
        timer.start()
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - start
        timer.cancel()
        p.returncode = os.waitstatus_to_exitcode(status)
        if expired.is_set():
            # Reap anything left of the group (shard workers of a --procs run).
            try:
                os.killpg(p.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        return Proc(p.returncode, wall, usage.ru_maxrss, expired.is_set())
    finally:
        if stdout_path:
            out.close()
        err.close()


def pin(tids, cpus):
    """Sets the CPU mask of the given threads (0: the calling thread)."""
    for tid in tids:
        try:
            os.sched_setaffinity(tid, cpus)
        except ProcessLookupError:
            pass  # the thread has ended


def run_json(argv, work, cpu=None):
    """Runs a pofl_bench_trace subcommand and parses its JSON lines."""
    path = os.path.join(work, "trace_out.jsonl")
    r = run_proc(argv, work, stdout_path=path, cpu=cpu)
    if not r.ok:
        return r, []
    with open(path) as f:
        return r, [json.loads(line) for line in f if line.strip()]


def read(path):
    with open(path, "rb") as f:
        return f.read()


ORACLE_KEYS = re.compile(rb'"oracle_(?:hits|misses|evictions)":\d+,?')


def strip_oracle(body):
    return ORACLE_KEYS.sub(b"", body)


def report_total(body):
    m = re.search(rb'"totals":\{"total":(\d+)', body[:200])
    return int(m.group(1)) if m else 0


# ---- sweep workloads ---------------------------------------------------------

# workload: (graph, sweep spec). With --json the CLI attaches the
# connectivity oracle and pins one thread. 500 trials (780K scenarios) keep a
# `--json` sweep near 2 s, so a run holds about ten of them: the 2,000-trial
# ROADMAP anchor took 5-9 s, two or three samples per run, and their median
# moved with whichever vCPU the few samples landed on.
SWEEPS = {
    "sweep-iid-hub40": (HUB40, ["0.05", "500"]),
}

# Share of the sweep time given to the `--json` invocation; `--procs 4` gets
# the rest. A `--json` sweep takes about three times as long as a
# `--procs 4` one, so at this share both get ten or more samples.
JSON_SHARE = 0.55

# Single-thread processes (set-up timings and the pinned `--json` sweep) are
# pinned to the vCPUs in turn. On the shared measuring host one vCPU can run
# markedly slower than the others for minutes; taking turns gives every vCPU
# the same share of the samples, so the median does not follow where the
# scheduler happened to put a few of them.
CPUS = sorted(os.sched_getaffinity(0))


def sweep_setup(tracer, work, graph, spec, tally, cpu):
    r, out = run_json([tracer, "setup", graph] + spec, work, cpu=cpu)
    tally.op(r.ok and len(out) == 1, "setup timing failed")
    return out[0]["setup_s"] if out else 0.0


def sweep_untraced(ctx, tally):
    graph_name, spec = SWEEPS[ctx.workload]
    graph = ctx.graph(graph_name)
    base = [ctx.cli, "sweep", graph] + spec
    setups = []

    # Two invocations, interleaved until the time is spent: `--json <f>` and
    # `--procs 4`, each `--procs 4` sweep counting as a request. Interleaving
    # spreads both over the whole run, so a burst of host contention hits
    # both alike.
    json_path = os.path.join(ctx.work, "sweep.json")
    procs_path = os.path.join(ctx.work, "procs.json")
    json_walls, procs_walls, rss = [], [], []
    reference = None
    total = 0
    turn = 0
    start = time.perf_counter()

    def next_kind():
        return "json" if sum(json_walls) <= JSON_SHARE * (sum(json_walls) + sum(procs_walls)) \
            else "procs"

    while True:
        # The set-up timing (a few tens of ms per process) rides along before
        # every sweep, so its samples spread over the whole run too.
        for _ in range(2):
            setups.append(sweep_setup(ctx.tracer, ctx.work, graph, spec, tally,
                                      CPUS[turn % len(CPUS)]))
            turn += 1
        kind = next_kind()
        if kind == "json":
            r = run_proc(base + ["--json", json_path], ctx.work,
                         cpu=CPUS[len(json_walls) % len(CPUS)])
            tally.op(r.ok, "sweep --json exited %d" % r.rc)
            if not r.ok:
                break
            body = strip_oracle(read(json_path))
            if reference is None:
                reference = body
                total = report_total(body)
                tally.check(total > 0, "sweep --json report has no scenarios")
            else:
                tally.check(body == reference, "sweep --json report changed between runs")
            json_walls.append(r.wall)
        else:
            r = run_proc(base + ["--procs", "4", "--json", procs_path], ctx.work)
            tally.op(r.ok, "sweep --procs 4 exited %d" % r.rc)
            if not r.ok:
                break
            tally.check(strip_oracle(read(procs_path)) == reference,
                        "--procs 4 report differs from the --json report")
            procs_walls.append(r.wall)
        rss.append(r.maxrss_kb)
        if not procs_walls:
            continue
        upcoming = json_walls if next_kind() == "json" else procs_walls
        if time.perf_counter() - start + statistics.median(upcoming) > ctx.seconds:
            break
    metrics = {"setup_s": statistics.median(setups)}
    if not json_walls or not procs_walls:
        return metrics  # the failures are tallied; nothing to time
    metrics["scen_per_s"] = total / statistics.median(json_walls)
    metrics["procs_scen_per_s"] = total / statistics.median(procs_walls)
    metrics["req_per_s"] = 1.0 / statistics.median(procs_walls)
    metrics["lat_p50_ms"] = 1e3 * statistics.median(procs_walls)
    tail, pct, n = tail_latency(procs_walls)
    metrics["lat_tail_ms"] = 1e3 * tail
    metrics["peak_rss_mb"] = max(rss) / 1024.0
    ctx.note("%d `--json` and %d `--procs 4` sweeps" % (len(json_walls), len(procs_walls)))
    ctx.note("lat_tail_ms is p%.2f of %d `--procs 4` requests" % (pct, n))
    return metrics


def sweep_traced(ctx, tally):
    graph_name, spec = SWEEPS[ctx.workload]
    graph = ctx.graph(graph_name)
    base = [ctx.cli, "sweep", graph] + spec
    layers = {}

    # Untraced reference: plain `--json`, pinned to one thread like the
    # replay, so the two reports match byte for byte, oracle counters too.
    json_path = os.path.join(ctx.work, "sweep.json")
    r = run_proc(base + ["--json", json_path], ctx.work)
    tally.op(r.ok, "sweep --json exited %d" % r.rc)
    untraced_wall = r.wall
    reference = read(json_path) if r.ok else b""

    # Traced replay of that sweep through each layer's public calls.
    replay_path = os.path.join(ctx.work, "replay.json")
    rr, out = run_json([ctx.tracer, "replay", graph] + spec + ["1", "oracle", replay_path, "64"],
                       ctx.work)
    tally.op(rr.ok and len(out) == 1, "replay failed")
    if out:
        rep = out[0]
        tally.check(read(replay_path) == reference, "traced replay bytes differ from sweep --json")
        tally.check(rep["promise_mismatches"] == 0, "oracle and union-find promise arms disagree")
        tally.check(rep["cold_mismatches"] == 0, "fresh-workspace routing differs from warm")
        tally.check(rep["json_roundtrip"], "report_from_json did not round-trip")
        layers.update(replay_layers(rep))
        # The shadow promise arm, the fresh-workspace probe and the key
        # bookkeeping are extra work the untraced sweep never does.
        traced_wall = rep["layered_wall_s"] - rep["shadow_s"] - rep["cold_s"] - rep["keys_s"]
        layers["trace.overhead_s"] = traced_wall - untraced_wall
        ratio = traced_wall / untraced_wall
        layers["trace.replay_wall_ratio"] = ratio
        if abs(ratio - 1.0) > REPLAY_DRIFT:
            ctx.note("DIVERGENCE: the replay's layered wall is %.2fx the CLI's --json wall "
                     "(%.2f s vs %.2f s); the per-layer figures may no longer describe the "
                     "engine" % (ratio, traced_wall, untraced_wall))

    layers.update(orchestrate_layers(ctx, tally, base, strip_oracle(reference)))
    return layers


def replay_layers(rep):
    return {
        "sim.source.busy_s": rep["source_busy_s"],
        "sim.source.groups_per_batch": rep["groups_per_batch"],
        "graph.promise.oracle_busy_s": rep["oracle_busy_s"],
        "graph.promise.uf_busy_s": rep["uf_busy_s"],
        "graph.promise.held_ratio": rep["held_ratio"],
        "graph.promise.oracle_hit_ratio": rep["oracle_hit_ratio"],
        "routing.core.busy_s": rep["route_busy_s"],
        "routing.core.ns_per_packet": rep["ns_per_packet"],
        "routing.core.cold_ns_per_packet": rep["cold_ns_per_packet"],
        "routing.core.chunk_fill": rep["chunk_fill"],
        "graph.stretch.busy_s": rep["stretch_busy_s"],
        "graph.stretch.bfs_runs": rep["bfs_runs"],
        "graph.stretch.distinct_keys": rep["distinct_keys"],
        "graph.stretch.reuse_ratio": rep["reuse_ratio"],
        "sim.tally.busy_s": rep["tally_busy_s"],
        "sim.json.write_s": rep["json_write_s"],
        "sim.json.parse_s": rep["json_parse_s"],
        "sim.json.bytes": rep["json_bytes"],
    }


def orchestrate_layers(ctx, tally, base, reference, reps=3):
    """The --procs 4 path taken apart: four `--shard i/4` workers run
    concurrently and timed one by one, then `pofl_cli merge`, alternated
    with whole `--procs 4` runs; medians over `reps` rounds."""
    procs_walls, slowest, skews, merges = [], [], [], []
    shard_paths = [os.path.join(ctx.work, "shard%d.json" % i) for i in range(4)]
    merged_path = os.path.join(ctx.work, "merged.json")
    for _ in range(reps):
        procs_path = os.path.join(ctx.work, "procs.json")
        r = run_proc(base + ["--procs", "4", "--json", procs_path], ctx.work)
        tally.op(r.ok, "sweep --procs 4 exited %d" % r.rc)
        if r.ok:
            tally.check(strip_oracle(read(procs_path)) == reference,
                        "--procs 4 report differs from the --json report")
        procs_walls.append(r.wall)

        walls = [0.0] * 4
        oks = [False] * 4

        def shard(i):
            # The same worker command line `--procs` spawns.
            w = run_proc(base + ["--shard", "%d/4" % i, "--json", shard_paths[i],
                                 "--threads", "1"], ctx.work)
            walls[i], oks[i] = w.wall, w.ok

        threads = [threading.Thread(target=shard, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i in range(4):
            tally.op(oks[i], "shard worker %d/4 failed" % i)
        m = run_proc([ctx.cli, "merge"] + shard_paths + ["--json", merged_path], ctx.work)
        tally.op(m.ok, "merge exited %d" % m.rc)
        if m.ok:
            tally.check(strip_oracle(read(merged_path)) == reference,
                        "merged shard reports differ from the --json report")
        slowest.append(max(walls))
        skews.append(max(walls) / statistics.median(walls))
        merges.append(m.wall)
    tail, pct, n = tail_latency(procs_walls)
    return {
        "orchestrate.shard_wall_max_s": statistics.median(slowest),
        "orchestrate.shard_skew": statistics.median(skews),
        "orchestrate.merge_s": statistics.median(merges),
        "orchestrate.overhead_s": statistics.median(procs_walls) - statistics.median(slowest)
        - statistics.median(merges),
        "e2e.lat_tail_percentile": pct,
        "e2e.lat_samples": n,
    }


# ---- daemon plumbing ---------------------------------------------------------


class Daemon:
    """One `pofl_cli serve` process on an ephemeral loopback port."""

    def __init__(self, ctx, graphs):
        self.ctx = ctx
        err = open(os.path.join(ctx.work, "stderr.log"), "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen([ctx.cli, "serve"] + graphs + ["--port", "0"],
                                     stdout=subprocess.PIPE, stderr=err, cwd=ctx.work,
                                     start_new_session=True)
        err.close()
        ctx.daemons.append(self)
        self.port = None
        deadline = start + 60.0
        fd = self.proc.stdout.fileno()
        seen = b""
        while self.port is None and time.perf_counter() < deadline:
            ready, _, _ = select.select([fd], [], [], deadline - time.perf_counter())
            chunk = os.read(fd, 4096) if ready else b""
            if not chunk:
                break
            seen += chunk
            m = re.search(rb"listening on [0-9.]+:(\d+)\n", seen)
            if m:
                self.port = int(m.group(1))
        self.setup_s = time.perf_counter() - start
        if self.port is None:
            self.kill()
            raise BenchError("daemon did not report its port")

    def status(self):
        """VmHWM / VmSize in MB and the thread count, from /proc."""
        fields = {}
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                key, _, value = line.partition(":")
                fields[key] = value.split()
        return (int(fields["VmHWM"][0]) / 1024.0, int(fields["VmSize"][0]) / 1024.0,
                int(fields["Threads"][0]))

    def tids(self):
        """Ids of the daemon's threads."""
        return {int(t) for t in os.listdir("/proc/%d/task" % self.proc.pid)}

    def shutdown(self):
        """Asks for a clean shutdown; True if the daemon confirmed it."""
        ok = False
        try:
            c = Conn(self.port, 10.0)
            ok = c.call({"cmd": "shutdown"}).startswith(b'{"ok":true,"stopping":true}')
            c.close()
            rest = self.proc.communicate(timeout=30)[0]
            ok = ok and b"shutdown complete" in rest and self.proc.returncode == 0
        except (OSError, subprocess.TimeoutExpired):
            ok = False
        self.kill()
        return ok

    def kill(self):
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()
        if self in self.ctx.daemons:
            self.ctx.daemons.remove(self)


class Conn:
    """A client connection speaking the daemon's line-delimited JSON."""

    def __init__(self, port, timeout):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # One buffer holds a whole ~740 KB sweep answer, so readline makes a
        # few large reads rather than ~90 of the default 8 KB.
        self.file = self.sock.makefile("rb", buffering=1 << 20)

    def call(self, request):
        line = request if isinstance(request, bytes) else json.dumps(request).encode() + b"\n"
        self.sock.sendall(line)
        response = self.file.readline()
        if not response.endswith(b"\n"):
            raise OSError("connection closed mid-response")
        return response

    def close(self):
        self.file.close()
        self.sock.close()


DAEMON_SPAWNS = 15  # a few ms each, so many are cheap and steady the median


def spawn_daemon(ctx, graphs, tally):
    """setup_s: spawn until the `listening on` line, median of DAEMON_SPAWNS
    spawns. The last daemon stays up for the measurement."""
    samples = []
    for _ in range(DAEMON_SPAWNS - 1):
        d = Daemon(ctx, graphs)
        samples.append(d.setup_s)
        tally.op(d.shutdown(), "daemon did not shut down cleanly")
    d = Daemon(ctx, graphs)
    samples.append(d.setup_s)
    return d, statistics.median(samples)


def body_after_key(response, field):
    """The report/result bytes of a success envelope."""
    i = response.find(b'"%s":' % field.encode())
    return response[i + len(field) + 3:-2] if i >= 0 else b""


# ---- daemon-mixed ------------------------------------------------------------

CACHED_SHARE = 0.7      # of requests: repeats from the cached pool
FRESH_CONN_SHARE = 0.1  # of requests: sent on a fresh connection, like `pofl_cli submit`
# Client connections, and the vCPUs the daemon and the client share. With
# four connections on all four vCPUs, client threads and the daemon's sweep
# workers contended and woke idle vCPUs, and the median round trip spread
# past its bound between runs. Confined to two vCPUs, taken in turn every
# PIN_SLICE_S, five runs spread by 0.06-0.09 against 0.11-0.27 unpinned.
MIXED_CONNS = 2
MIXED_CPUS = 2
PIN_SLICE_S = 1.0


def sweep_request(graph, **spec):
    req = {"cmd": "sweep", "graph": graph}
    req.update(spec)
    return json.dumps(req, separators=(",", ":")).encode() + b"\n"


def daemon_pool():
    """Eight repeatable specs, far fewer than the daemon's 64-entry LRU."""
    pool = [sweep_request(HUB40, mode="iid", p=0.05, trials=20, seed=s) for s in range(1, 7)]
    pool.append(sweep_request(FATTREE, mode="exhaustive", k=1))
    pool.append(sweep_request(FATTREE, mode="iid", p=0.02, trials=4, seed=1))
    return pool


class MixedClient:
    """Closed loop: each of `conns` client threads sends its next request
    only after the previous response arrived."""

    def __init__(self, ctx, daemon, tally, seed):
        self.ctx = ctx
        self.daemon = daemon
        self.tally = tally
        self.pool = daemon_pool()
        self.reference = {}
        self.lock = threading.Lock()
        # (request, kind, rtt_s, response_bytes, scenarios, completed_at),
        # in completion order
        self.log = []
        self.first_fresh = None  # (request, response) of the first fresh sweep
        self.tids = []  # native ids of the client threads
        self.fresh_counter = 0
        self.seed = seed

    def warm(self):
        """Cold answers of the pool: the reference bytes for cached repeats,
        and the golden-baseline checks."""
        c = Conn(self.daemon.port, 60.0)
        for req in self.pool:
            resp = c.call(req)
            ok = resp.startswith(b'{"ok":true,"cached":false,')
            self.tally.op(ok, "pool warm-up request failed")
            self.reference[req] = body_after_key(resp, "report")
        c.close()
        baselines = {
            self.pool[0]: "cli_zoo_procs.json",
            self.pool[6]: "cli_fattree_exhaustive.json",
        }
        for req, name in baselines.items():
            golden = read(os.path.join(ROOT, "tests", "baselines", name)).rstrip(b"\n")
            self.tally.check(self.reference[req] == golden, "daemon response differs from " + name)

    def next_fresh_seed(self):
        with self.lock:
            self.fresh_counter += 1
            return 1_000_000 * (self.seed % 1000 + 1) + self.fresh_counter

    def worker(self, index, deadline):
        with self.lock:
            self.tids.append(threading.get_native_id())
        rng = random.Random("%d:%d" % (self.seed, index))
        conn = None
        while time.perf_counter() < deadline:
            if rng.random() < CACHED_SHARE:
                kind = "cached"
                req = rng.choice(self.pool)
            else:
                kind = "fresh"
                req = sweep_request(HUB40, mode="iid", p=0.05, trials=20,
                                    seed=self.next_fresh_seed())
            fresh_conn = rng.random() < FRESH_CONN_SHARE
            try:
                t0 = time.perf_counter()
                if fresh_conn:
                    c = Conn(self.daemon.port, 60.0)
                    resp = c.call(req)
                    c.close()
                else:
                    if conn is None:
                        conn = Conn(self.daemon.port, 60.0)
                    resp = conn.call(req)
                rtt = time.perf_counter() - t0
            except OSError as e:
                self.tally.op(False, "request failed: %s" % e)
                conn = None
                continue
            self.verify(req, kind, resp)
            total = report_total(body_after_key(resp, "report"))
            with self.lock:
                self.log.append((req, kind, rtt, len(resp), total, t0 + rtt))
                if kind == "fresh" and self.first_fresh is None:
                    self.first_fresh = (req, resp)
        if conn is not None:
            conn.close()

    def verify(self, req, kind, resp):
        if kind == "cached":
            # A repeat is usually a cache hit; either way its report bytes
            # must equal the cold answer recorded during warm-up.
            ok = resp.startswith(b'{"ok":true,') and \
                body_after_key(resp, "report") == self.reference[req]
            self.tally.op(ok, "pool repeat differs from its cold answer")
        else:
            ok = resp.startswith(b'{"ok":true,"cached":false,') and \
                report_total(body_after_key(resp, "report")) == 31200
            self.tally.op(ok, "fresh sweep response malformed")

    def run(self, seconds, conns):
        deadline = time.perf_counter() + seconds
        threads = [threading.Thread(target=self.worker, args=(i, deadline)) for i in range(conns)]
        for t in threads:
            t.start()
        # The daemon and the client threads share MIXED_CPUS vCPUs, a
        # different set every PIN_SLICE_S, so every vCPU serves the same
        # share of the run (see min_defeat_grid).
        turn = 0
        while any(t.is_alive() for t in threads):
            with self.lock:
                tids = list(self.tids)
            pin(self.daemon.tids() | set(tids),
                {CPUS[(turn + i) % len(CPUS)] for i in range(MIXED_CPUS)})
            turn += 1
            threads[0].join(PIN_SLICE_S)
        for t in threads:
            t.join()
        pin(self.daemon.tids(), set(CPUS))


def daemon_mixed(ctx, tally, traced):
    graphs = [ctx.graph(HUB40), ctx.graph(FATTREE)]
    daemon, setup_s = spawn_daemon(ctx, graphs, tally)
    client = MixedClient(ctx, daemon, tally, ctx.seed)
    client.warm()
    conns = min(MIXED_CONNS, os.cpu_count() or 1)
    client.run(ctx.seconds, conns)
    hwm_mb, vm_mb, threads = daemon.status()
    c = Conn(daemon.port, 10.0)
    stats = json.loads(c.call({"cmd": "stats"}))
    c.close()
    tally.op(daemon.shutdown(), "daemon did not shut down cleanly")

    log_ = client.log
    rtts = [e[2] for e in log_]
    if not rtts:
        return {"setup_s": setup_s}  # the failures are tallied; nothing to time
    fresh = [e for e in log_ if e[1] == "fresh"]
    tail, pct, n = tail_latency(rtts)
    ctx.note("lat_tail_ms is p%.2f of %d requests over %d connections" % (pct, n, conns))
    metrics = {
        "setup_s": setup_s,
        "scen_per_s": statistics.median(e[4] / e[2] for e in fresh) if fresh else 0.0,
        "procs_scen_per_s": chunked_rate([(e[5], e[4]) for e in log_]),
        "req_per_s": chunked_rate([(e[5], 1) for e in log_]),
        "lat_p50_ms": 1e3 * statistics.median(rtts),
        "lat_tail_ms": 1e3 * tail,
        "peak_rss_mb": hwm_mb,
    }
    if not traced:
        return metrics

    cache = stats["cache"]
    looked_up = cache["hits"] + cache["misses"]
    layers = {
        "serve.response_bytes": statistics.median(e[3] for e in log_),
        "serve.cache_hit_ratio": cache["hits"] / looked_up if looked_up else 0.0,
        "serve.cache_evictions": cache["evictions"],
        "serve.threads_end": threads,
        "serve.vm_size_mb_end": vm_mb,
        "e2e.lat_tail_percentile": pct,
        "e2e.lat_samples": n,
    }
    layers.update(serve_in_process(ctx, tally, client.pool + [e[0] for e in log_][:300], graphs,
                                   [e for e in log_ if e[1] == "cached"]))
    # Sweep layers of the daemon's cold path: the first fresh spec replayed
    # oracle-free, byte-checked against the daemon's answer.
    if client.first_fresh is not None:
        req, resp = client.first_fresh
        spec = json.loads(req)
        path = os.path.join(ctx.work, "replay.json")
        rr, out = run_json([ctx.tracer, "replay", ctx.graph(HUB40), "0.05", "20",
                            str(spec["seed"]), "no-oracle", path, "1"], ctx.work)
        tally.op(rr.ok and len(out) == 1, "replay failed")
        if out:
            tally.check(read(path).rstrip(b"\n") == body_after_key(resp, "report"),
                        "traced replay bytes differ from the daemon's answer")
            tally.check(out[0]["promise_mismatches"] == 0 and out[0]["cold_mismatches"] == 0,
                        "replay arms disagree")
            layers.update(replay_layers(out[0]))
    return layers


def serve_in_process(ctx, tally, requests, graphs, cached_log, cold_log=()):
    """SweepServer::handle_request timed in-process on the same request
    sequence the daemon saw. serve.transfer_ms is the median round trip
    minus the median handle time, over cached requests when there are any
    (daemon-mixed), else over cold ones (min-defeat-grid)."""
    path = os.path.join(ctx.work, "requests.jsonl")
    with open(path, "wb") as f:
        f.writelines(requests)
    r, out = run_json([ctx.tracer, "serve", path] + graphs, ctx.work)
    tally.op(r.ok and len(out) == len(requests), "in-process handle_request replay failed")
    tally.check(all(o["ok"] for o in out), "in-process handle_request answered an error")
    cached_ms = [o["ms"] for o in out if o["cached"]]
    cold_ms = [o["ms"] for o in out if not o["cached"]]
    handle_cached = statistics.median(cached_ms) if cached_ms else 0.0
    handle_cold = statistics.median(cold_ms) if cold_ms else 0.0
    if cached_log:
        transfer = 1e3 * statistics.median(e[2] for e in cached_log) - handle_cached
    else:
        transfer = 1e3 * statistics.median(e[2] for e in cold_log) - handle_cold
    return {
        "serve.handle_cached_ms": handle_cached,
        "serve.handle_cold_ms": handle_cold,
        "serve.transfer_ms": transfer,
    }


# ---- min-defeat-grid ---------------------------------------------------------

BUDGET = 4
HUB_CHUNKS = 8  # the hubring-67 list is spread over the first rounds


def min_defeat_queries(seed):
    """(grid, chunks): the fat-tree k=6 stride grid in a fixed order, and the
    hubring-67 list cut into HUB_CHUNKS chunks. Each chunk holds two of the
    fixed cliff and slow pairs first, then its share of a seeded sample of
    the fast stratum."""
    with open(os.path.join(HERE, "hubring67_pairs.json")) as f:
        strata = json.load(f)
    rng = random.Random(seed)
    grid = [(FATTREE, s, t) for s in range(0, 45, 5)
            for t in list(range(1, 45, 5)) + list(range(3, 45, 5))]
    excluded = {tuple(p) for p in strata["enumerate_fallback"] + strata["slow_all"]}
    fast = [(s, t) for s in range(67) for t in range(67) if s != t and (s, t) not in excluded]
    sample = rng.sample(fast, strata["fast_sample"])
    heavy = strata["cliff"] + strata["slow"]

    def encode(queries):
        return [json.dumps({"cmd": "min-defeat", "graph": g, "source": s, "destination": t,
                            "budget": BUDGET}, separators=(",", ":")).encode() + b"\n"
                for g, s, t in queries]

    chunks = [encode([(HUB67, s, t) for s, t in heavy[i::HUB_CHUNKS] + sample[i::HUB_CHUNKS]])
              for i in range(HUB_CHUNKS)]
    return encode(grid), chunks


class SearchTelemetry:
    FIELDS = ("nodes_expanded", "leaves_verified", "pruned_bound")

    def __init__(self):
        self.sums = dict.fromkeys(self.FIELDS, 0)
        self.fallbacks = 0
        self.fallback_s = 0.0
        self.search_s = 0.0

    def add(self, result, rtt):
        tel = result["telemetry"]
        for k in self.FIELDS:
            self.sums[k] += tel[k]
        self.search_s += rtt
        if tel["strategy"] == "enumerate-fallback":
            self.fallbacks += 1
            self.fallback_s += rtt


def min_defeat_grid(ctx, tally, traced):
    graphs = [ctx.graph(FATTREE), ctx.graph(HUB67)]
    daemon, setup_s = spawn_daemon(ctx, graphs, tally)
    grid, chunks = min_defeat_queries(ctx.seed)
    answers = {}   # query -> (result, round trip of its first answer)
    sizes = []

    def issue(conn, q):
        """One query under the per-query time limit; returns (conn, rtt)."""
        try:
            if conn is None:
                conn = Conn(daemon.port, MIN_DEFEAT_LIMIT_S)
            t0 = time.perf_counter()
            resp = conn.call(q)
            rtt = time.perf_counter() - t0
        except OSError as e:
            tally.op(False, "min-defeat query failed or overran %.0f s: %s" % (MIN_DEFEAT_LIMIT_S, e))
            return None, None
        ok = resp.startswith(b'{"ok":true,"cached":false,')
        result = json.loads(resp)["result"] if ok else None
        sizes.append(len(resp))
        ok = ok and answers.setdefault(q, (result, rtt))[0] == result
        tally.op(ok, "min-defeat answer missing, cached or not reproducible")
        return conn, rtt if ok else None

    # Rounds until the time is spent, and at least one per hub chunk: a pass
    # over the grid, then the round's hubring-67 chunk, all on one
    # connection. Both kinds recur over the whole run, so a burst of host
    # contention hits them alike. Between two asks of the same grid query
    # 161 others pass, more than the daemon's 64-entry LRU holds, so no
    # query is ever answered from the cache.
    pass_rates, grid_rtts, hub_rtts, first_pass = [], [], [], []
    fixed = [0, 0.0]  # queries and round trips of the first len(chunks) rounds
    conn = None
    start = time.perf_counter()
    rounds = 0
    while rounds < len(chunks) or time.perf_counter() < start + ctx.seconds:
        # The client and the daemon share one vCPU, a different one each
        # round. A round trip then wakes no idle vCPU (a ping took 18 us so,
        # against 40-60 us unpinned), and every vCPU serves the same share of
        # the rounds, so the medians do not follow a vCPU the host slows
        # down for minutes.
        pin(daemon.tids() | {0}, {CPUS[rounds % len(CPUS)]})
        round_rtts = []
        t0 = time.perf_counter()
        for q in grid:
            conn, rtt = issue(conn, q)
            if rtt is not None:
                round_rtts.append(rtt)
                if rounds == 0:
                    first_pass.append((q, "cold", rtt))
        pass_rates.append(len(round_rtts) / (time.perf_counter() - t0))
        grid_rtts += round_rtts
        for q in chunks[rounds] if rounds < len(chunks) else []:
            conn, rtt = issue(conn, q)
            if rtt is not None:
                round_rtts.append(rtt)
                hub_rtts.append(rtt)
        if rounds < len(chunks):
            fixed[0] += len(round_rtts)
            fixed[1] += sum(round_rtts)
        rounds += 1
    pin(daemon.tids() | {0}, set(CPUS))
    if conn is not None:
        conn.close()

    hwm_mb, vm_mb, nthreads = daemon.status()
    c = Conn(daemon.port, 10.0)
    stats = json.loads(c.call({"cmd": "stats"}))
    c.close()
    tally.op(daemon.shutdown(), "daemon did not shut down cleanly")
    if not grid_rtts or not hub_rtts:
        return {"setup_s": setup_s}  # the failures are tallied; nothing to time

    rtts = grid_rtts + hub_rtts
    tail, pct, n = tail_latency(rtts)
    ctx.note("lat_tail_ms is p%.2f of %d min-defeat queries on one connection" % (pct, n))
    ctx.note("%d rounds: %d hubring-67 queries in %.2f s, %d grid passes"
             % (rounds, len(hub_rtts), sum(hub_rtts), len(pass_rates)))
    metrics = {
        "setup_s": setup_s,
        "scen_per_s": statistics.median(pass_rates),
        "procs_scen_per_s": fixed[0] / fixed[1],
        "req_per_s": len(hub_rtts) / sum(hub_rtts),
        "lat_p50_ms": 1e3 * statistics.median(rtts),
        "lat_tail_ms": 1e3 * tail,
        "peak_rss_mb": hwm_mb,
    }
    if not traced:
        return metrics
    # Search telemetry once per distinct query, from its first answer, so the
    # sums do not depend on how many rounds fit into the run.
    tel = SearchTelemetry()
    for result, rtt in answers.values():
        tel.add(result, rtt)
    cache = stats["cache"]
    looked_up = cache["hits"] + cache["misses"]
    # In-process handle_request over the grid, then its 32 most recent
    # queries again (still in the LRU, so cache hits).
    layers = serve_in_process(ctx, tally, grid + grid[-32:], graphs, [], first_pass)
    layers.update({
        "serve.response_bytes": statistics.median(sizes),
        "search.nodes_expanded": tel.sums["nodes_expanded"],
        "search.leaves_verified": tel.sums["leaves_verified"],
        "search.pruned_bound": tel.sums["pruned_bound"],
        "search.fallback_queries": tel.fallbacks,
        "search.fallback_time_share": tel.fallback_s / tel.search_s if tel.search_s else 0.0,
        "serve.cache_hit_ratio": cache["hits"] / looked_up if looked_up else 0.0,
        "serve.cache_evictions": cache["evictions"],
        "serve.threads_end": nthreads,
        "serve.vm_size_mb_end": vm_mb,
        "e2e.lat_tail_percentile": pct,
        "e2e.lat_samples": n,
    })
    return layers


# ---- entry point -------------------------------------------------------------

WORKLOADS = ("sweep-iid-hub40", "daemon-mixed", "min-defeat-grid")


class Context:
    def __init__(self, args, cli, tracer, work):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.cli = cli
        self.tracer = tracer
        self.work = work
        self.zoo = os.path.join(work, "zoo")
        self.notes = []
        self.daemons = []

    def graph(self, name):
        return os.path.join(self.zoo, name + ".graphml")

    def note(self, text):
        self.notes.append(text)


def run_workload(ctx, trace, tally):
    r = run_proc([ctx.cli, "export-zoo", ctx.zoo], ctx.work)
    if not r.ok:
        raise BenchError("export-zoo failed")
    if ctx.workload in SWEEPS:
        return sweep_traced(ctx, tally) if trace else sweep_untraced(ctx, tally)
    if ctx.workload == "daemon-mixed":
        return daemon_mixed(ctx, tally, trace)
    return min_defeat_grid(ctx, tally, trace)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    ctx = None
    try:
        check_source()
        out_dir = build_dir()
        os.makedirs(out_dir, exist_ok=True)
        cli, tracer = build(out_dir)
        work = tempfile.mkdtemp(prefix="run-", dir=out_dir)
        # `--procs` parents put their shard files under TMPDIR: keep them
        # inside the checkout too.
        os.environ["TMPDIR"] = work
        ctx = Context(args, cli, tracer, work)
        tally = Tally()
        values = run_workload(ctx, args.trace == 1, tally)
    except BenchError as e:
        log("perfbench: %s" % e)
        return 2
    finally:
        if ctx is not None:
            for d in list(ctx.daemons):
                d.kill()
            shutil.rmtree(ctx.work, ignore_errors=True)

    if args.trace:
        units = LAYER_UNITS
    else:
        units = E2E_UNITS
        values["ok_ratio"] = 1.0 - tally.failed / max(1, tally.attempted)
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    for note in ctx.notes:
        print("note: " + note)
    for reason in tally.reasons:
        print("failure: " + reason)
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
