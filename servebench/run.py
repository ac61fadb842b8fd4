#!/usr/bin/env python3
"""Serving benchmark for the shipped `clpp-serve --listen` configuration.

    python3 servebench/run.py --workload editor --seed 1 --seconds 35 --trace 0

Run from the repository root. The first run configures and builds
clpp-serve and servebench_probe into .bench_build/ (later runs only check
that the build is current). Each run starts `clpp-serve --listen --model
servebench/fixture/advisor.bin` with default flags (hot-repeat adds
--cache-cap), warms it up, drives one workload over at most four
connections, checks every verdict against in-process
ParallelAdvisor::advise, and prints one JSON result as the last line of
stdout: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. The line before it is the run's config block. See README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # write nothing next to the sources

import bench  # noqa: E402
import client  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(BUILD, "servebench")
SERVE = os.path.join(BUILD, "examples", "clpp-serve")
PROBE = os.path.join(BUILD, "servebench_probe")
FIXTURE = os.path.join(HERE, "fixture", "advisor.bin")
# clpp_cli train --size 600 --epochs 2 --no-mlm --max-len 110 --dim 64
FIXTURE_SHA256 = "97fd77af7a99ef9c2a122f699c16f4bc8ba356d3f0ee8902e7dc07a2944f4647"
FIXTURE_MAX_LEN = 110
MIN_CLAUSE_ROWS_SHARE = 0.25

NPROC = os.cpu_count() or 1
BASE_NICE = os.getpriority(os.PRIO_PROCESS, 0)
CLIENT_NICE = -10
CONNECTIONS = min(4, NPROC)
SHARDS = 2                 # clpp-serve --listen default
LAUNCHES = 5               # fresh servers per run; setup_s is their median
WARM_PER_SHARD = 3         # warm-up replies each shard must have served
WARM_SECONDS = 0.5         # closed-loop warm-up after each launch
HOT_CACHE_CAP = 192        # hot-repeat --cache-cap: > HOT_SET, << distinct stream
PROBE_SECONDS = 1.0        # one max-rate probe
GIVE_UP_S = 1.0            # a probe of >= 100 requests fails at this wait
DRAIN_S = 30.0             # unanswered after this long = lost
TRACE_SNIPPETS = 400       # traced replay: prefix of the sent sequence
CLOSED_MAX_RPS = 2000      # closed loops are handed this many requests/s

# rate: Poisson rate of the measured phase (None = closed loop on one
# connection); search_start: first rate of the traced run's max-rate search.
WORKLOADS = {
    "editor": dict(rate=None, hot=False, cache_cap=0, search_start=8.0),
    "fleet": dict(rate=5.0, hot=False, cache_cap=0, search_start=8.0),
    "hot-repeat": dict(rate=None, hot=True, cache_cap=HOT_CACHE_CAP,
                       search_start=40.0),
}

class BenchError(Exception):
    """A run that cannot produce a number (setup or correctness failure)."""


def log(msg):
    print("servebench: " + msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no repository sources next to servebench/; "
                         "run from the root of a full checkout")
    os.makedirs(WORK, exist_ok=True)
    out = open(os.path.join(WORK, "build.log"), "w")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        inject = os.path.join(HERE, "probe", "inject.cmake")
        rc = subprocess.call(["cmake", "-S", ROOT, "-B", BUILD,
                              "-DCMAKE_BUILD_TYPE=Release",
                              "-DCMAKE_PROJECT_clpp_INCLUDE=" + inject],
                             stdout=out, stderr=subprocess.STDOUT)
        if rc != 0:
            raise BenchError("cmake configure failed, see " + out.name)
    rc = subprocess.call(["cmake", "--build", BUILD, "--target", "clpp-serve",
                          "servebench_probe", "-j", str(NPROC)],
                         stdout=out, stderr=subprocess.STDOUT)
    if rc != 0:
        raise BenchError("build failed, see " + out.name)


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def check_fixture():
    with open(FIXTURE, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    if digest != FIXTURE_SHA256:
        raise BenchError("fixture %s has sha256 %s, expected %s"
                         % (FIXTURE, digest, FIXTURE_SHA256))


def client_priority():
    """Raises this process's CPU priority when the host allows it (returns
    the nice value in effect). The load generator sleeps until a send is
    due and uses little CPU, but on a host whose cores the server's
    spinning OpenMP threads fill, it would otherwise send late and read
    replies late; on a separate client machine it would not."""
    try:
        os.setpriority(os.PRIO_PROCESS, 0, CLIENT_NICE)
    except OSError:
        pass
    return os.getpriority(os.PRIO_PROCESS, 0)


def server_priority():
    """Child processes (server, probe) run at the default priority."""
    os.setpriority(os.PRIO_PROCESS, 0, BASE_NICE)


def shipped_env(**extra):
    """The caller's environment without OpenMP or CLPP knobs, so the server
    runs its defaults."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("OMP_", "GOMP_", "CLPP_"))}
    env.update(extra)
    return env


# ------------------------------------------------------------------ probe


def probe_snippets(seed, count):
    out = subprocess.run([PROBE, "snippets", str(seed), str(count)],
                         capture_output=True, text=True, check=True).stdout
    return [json.loads(line) for line in out.splitlines()]


def probe_reference(codes):
    """code -> reference reply, computed in NPROC single-threaded probes."""
    codes = sorted(set(codes))
    chunks = [codes[i::NPROC] for i in range(NPROC)]
    procs = []
    for chunk in chunks:
        p = subprocess.Popen([PROBE, "reference", FIXTURE],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             text=True, env=shipped_env(OMP_NUM_THREADS="1"),
                             preexec_fn=server_priority)
        procs.append(p)
    ref = {}
    for p, chunk in zip(procs, chunks):
        out, _ = p.communicate("".join(json.dumps(c) + "\n" for c in chunk))
        if p.returncode != 0:
            raise BenchError("servebench_probe reference failed")
        lines = out.splitlines()
        if len(lines) != len(chunk):
            raise BenchError("servebench_probe reference: short output")
        for code, line in zip(chunk, lines):
            ref[code] = json.loads(line)
    return ref


def probe_trace(codes):
    spans = os.path.join(WORK, "spans.json")
    out = subprocess.run([PROBE, "trace", FIXTURE, str(FIXTURE_MAX_LEN), spans],
                         input="".join(json.dumps(c) + "\n" for c in codes),
                         capture_output=True, text=True, check=True,
                         env=shipped_env(), preexec_fn=server_priority).stdout
    return json.loads(out.splitlines()[-1])


# ------------------------------------------------------------------ server


def proc_cpu_s(pid):
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class Server:
    """One `clpp-serve --listen` process tree: the supervisor this process
    starts and the shard processes it forks."""

    def __init__(self, cache_cap, tag):
        self.port_file = os.path.join(WORK, "port." + tag)
        if os.path.exists(self.port_file):
            os.remove(self.port_file)
        cmd = [SERVE, "--listen", "--model", FIXTURE,
               "--port-file", self.port_file]
        if cache_cap:
            cmd += ["--cache-cap", str(cache_cap)]
        self.log = open(os.path.join(WORK, "serve.%s.log" % tag), "w")
        self.admin = None
        self.shard_pids = []
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=shipped_env(), cwd=WORK,
                                     preexec_fn=server_priority,
                                     stdout=self.log, stderr=subprocess.STDOUT)
        try:
            self.port = self._await_port()
            self.admin = client.Conn(self.port)
            self.shard_pids = [s["pid"] for s in self.stats()["per_shard"]]
        except BaseException:
            self.stop()
            raise

    def _await_port(self):
        deadline = self.t0 + 60
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError("clpp-serve exited during start-up")
            try:
                with open(self.port_file) as f:
                    text = f.read().strip()
                if text:
                    return int(text)
            except OSError:
                pass
            time.sleep(0.002)
        raise BenchError("clpp-serve did not report a port")

    def stats(self):
        return self.admin.stats()

    def warm(self, codes):
        """Closed-loop warm-up until every shard has served WARM_PER_SHARD
        requests; returns (seconds since launch, codes used)."""
        conn = client.Conn(self.port)
        try:
            for n, code in enumerate(codes):
                reply = conn.call({"id": 900000 + n, "code": code})
                if "error" in reply:
                    raise BenchError("warm-up request failed: %s" % reply)
                st = self.stats()
                if all(s["served"] >= WARM_PER_SHARD for s in st["per_shard"]):
                    return time.perf_counter() - self.t0, n + 1
        finally:
            conn.close()
        raise BenchError("warm-up never reached every shard")

    def pids(self):
        return [self.proc.pid] + self.shard_pids

    def cpu(self):
        """(supervisor, shards) CPU seconds."""
        return (proc_cpu_s(self.proc.pid),
                sum(proc_cpu_s(p) for p in self.shard_pids))

    def stop(self):
        """SIGTERM (the supervisor drains and reaps its shards), then waits
        for every process of the tree; stragglers are killed."""
        if self.admin is not None:
            self.admin.close()
            self.admin = None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        deadline = time.perf_counter() + 5
        for pid in self.shard_pids:
            while alive(pid):
                if time.perf_counter() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    deadline = time.perf_counter() + 5
                time.sleep(0.01)
        self.log.close()


def alive(pid):
    """True while `pid` runs (a zombie counts as ended)."""
    try:
        with open("/proc/%d/stat" % pid) as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


# ------------------------------------------------------------------ run


class Run:
    """Every request of one workload run, in send order."""

    def __init__(self):
        self.codes = []
        self.replies = {}     # request index -> reply
        self.latency_ms = []  # from due time (open loop) or send; None = failed
        self.sent_ms = {}     # request index -> latency from actual send
        self.lateness_s = []  # open loop: send time minus due time

    def add(self, code, reply, latency_ms, sent_latency_ms):
        k = len(self.codes)
        self.codes.append(code)
        if reply is not None:
            self.replies[k] = reply
        if reply is None or "error" in reply:
            self.latency_ms.append(None)
            return None
        self.latency_ms.append(latency_ms)
        self.sent_ms[k] = sent_latency_ms
        return latency_ms


def run_closed(run, conn, codes, seconds):
    """Closed loop on one connection; returns the elapsed seconds."""
    def on_reply(i, sent, recv, reply):
        ms = (recv - sent) * 1e3
        run.add(codes[i], reply, ms, ms)
    _, elapsed = client.closed_loop(conn, codes, seconds, len(run.codes) + 1,
                                    on_reply)
    return elapsed


def run_open(run, conns, codes, schedule, give_up_s):
    """One open-loop phase. Returns (latencies in send order, errors, sent,
    gave_up, seconds from start to the last reply)."""
    first = len(run.codes)
    sent, replies, lateness, start, gave_up = client.open_loop(
        conns, schedule, codes, first + 1, DRAIN_S, give_up_s)
    run.lateness_s.extend(lateness)
    lat = []
    errors = 0
    last = start
    for k in range(sent):
        recv, reply = replies.get(k, (None, None))
        if reply is None:
            lat.append(run.add(codes[k], None, None, None))
            continue
        last = max(last, recv)
        due = start + schedule[k]
        lat.append(run.add(codes[k], reply, (recv - due) * 1e3,
                           (recv - due - lateness[k]) * 1e3))
        errors += "error" in reply
    return lat, errors, sent, gave_up, last - start


def search_rate(run, conns, stream, consume, start, seed, budget_end):
    """The max-rate staircase (bench.RateSearch) until `budget_end`."""
    search = bench.RateSearch(start=start)
    probe = 0
    while time.perf_counter() + PROBE_SECONDS < budget_end:
        rate = search.rate
        count = max(8, int(round(rate * PROBE_SECONDS)))
        schedule = bench.poisson_schedule(rate, count, seed * 1000 + probe)
        # Below 100 samples the p99 is the maximum, so the first request to
        # wait past the limit already fails the probe.
        give_up = bench.P99_LIMIT_MS / 1e3 if count < 100 else GIVE_UP_S
        codes = stream(count, len(run.codes))
        lat, errors, sent, gave_up, _ = run_open(run, conns, codes, schedule,
                                                 give_up)
        consume(codes[:sent])
        search.record(not gave_up and bench.probe_passes(lat, errors, sent))
        probe += 1
    return search


def stats_delta(before, after):
    """Counter deltas between two clpp.shard_stats.v1 snapshots."""
    return {
        "evictions": after["cache"]["evictions"] - before["cache"]["evictions"],
        "overloaded": (after["admission"]["overloaded"]
                       - before["admission"]["overloaded"]),
        "over_quota": (after["admission"]["over_quota"]
                       - before["admission"]["over_quota"]),
        "served": [b["served"] - a["served"] for a, b in
                   zip(before["per_shard"], after["per_shard"])],
    }


def run_workload(name, seed, seconds, trace):
    spec = WORKLOADS[name]
    pool = probe_snippets(seed, int(1000 * seconds) + 1000)
    warm_pool, pool = pool[:1000], pool[1000:]
    cursor = [0]  # next unused distinct snippet of `pool`

    def take(n):
        out = bench.distinct_sequence(pool, n, cursor[0])
        cursor[0] += n
        return out

    hot = take(bench.HOT_SET) if spec["hot"] else []
    hot_set = set(hot)

    def stream(count, salt):
        """`count` requests of the workload's stream from the next unused
        distinct snippet on; `consume` then skips the distinct ones sent."""
        if not spec["hot"]:
            return bench.distinct_sequence(pool, count, cursor[0])
        return bench.hot_repeat_sequence(hot, pool[cursor[0]:], count,
                                         seed * 7919 + salt)[0]

    def consume(sent):
        cursor[0] += sum(1 for c in sent if c not in hot_set)

    # The measured phase is split evenly over LAUNCHES fresh servers, so one
    # launch's thread placement does not decide the run. A traced run gives
    # its second half to the max-rate search, on the last launch.
    measured = (seconds / 2 if trace else seconds) / LAUNCHES
    run = Run()
    config = {}
    setups, rss, deltas = [], [], []
    cpu_sup = cpu_shard = elapsed = 0.0
    slices = []  # per launch: (p50 ms, completed/s, CPU ms per completed)
    warm_used = 0
    search = None
    for launch in range(LAUNCHES):
        server = Server(spec["cache_cap"], "launch%d" % launch)
        try:
            t, n = server.warm(warm_pool[warm_used:])
            setups.append(t)
            warm_used += n
            conns = [client.Conn(server.port) for _ in range(CONNECTIONS)]
            # Past the first slow requests (thread pools, page faults).
            warm = warm_pool[warm_used:]
            warm_used += client.closed_loop(conns[0], warm, WARM_SECONDS,
                                            800000, lambda *a: None)[0]
            if spec["hot"]:
                # Serve the hot set once, then fill the cache to its cap so
                # every later miss inserts and evicts. Closed loop: a burst
                # would only queue behind itself.
                for code in hot + take(HOT_CACHE_CAP - bench.HOT_SET):
                    if "error" in conns[0].call({"id": 700000, "code": code}):
                        raise BenchError("cache fill request failed")
            stats0 = server.stats()
            cpu0 = server.cpu()
            begin = len(run.codes)
            if spec["rate"] is None:
                took = run_closed(run, conns[0],
                                  stream(int(CLOSED_MAX_RPS * measured), launch),
                                  measured)
            else:
                count = int(round(spec["rate"] * measured))
                schedule = bench.poisson_schedule(spec["rate"], count,
                                                  seed * 100 + launch)
                took = run_open(run, conns, stream(count, launch), schedule,
                                None)[4]
            consume(run.codes[begin:])
            cpu1 = server.cpu()
            cpu_sup += cpu1[0] - cpu0[0]
            cpu_shard += cpu1[1] - cpu0[1]
            elapsed += took
            done = [x for x in run.latency_ms[begin:] if x is not None]
            slices.append((bench.median(done), len(done) / took,
                           (sum(cpu1) - sum(cpu0)) * 1e3 / max(1, len(done))))
            deltas.append(stats_delta(stats0, server.stats()))
            fixed = len(run.codes)
            if trace and launch == LAUNCHES - 1:
                search = search_rate(run, conns, stream, consume,
                                     spec["search_start"], seed,
                                     time.perf_counter() + seconds / 2)
                config["search"] = [[round(r, 2), p] for r, p in search.history]
            if server.stats()["deaths"] != 0:
                raise BenchError("a shard died during the run")
            rss.append(sum(proc_hwm_mb(p) for p in server.pids()))
            for c in conns:
                c.close()
        finally:
            server.stop()
    config["mode"] = ("closed loop, 1 connection" if spec["rate"] is None else
                      "open loop, Poisson %g/s, %d connections"
                      % (spec["rate"], CONNECTIONS))

    # ---- correctness
    reference = probe_reference(run.codes)
    mismatches = bench.check_verdicts(run.codes, run.replies, reference)
    # The guard counts distinct snippets, so a hot set's draw cannot trip it.
    clause_share = (sum(1 for r in reference.values() if r.get("needs_directive"))
                    / max(1, len(reference)))
    if clause_share < MIN_CLAUSE_ROWS_SHARE:
        raise BenchError("only %.3f of distinct snippets reach the clause heads "
                         "(< %.2f): the fixture no longer runs all four heads"
                         % (clause_share, MIN_CLAUSE_ROWS_SHARE))

    attempted = len(run.codes)
    lost = sum(1 for k in range(attempted) if k not in run.replies)
    errors = sum(1 for r in run.replies.values() if "error" in r)
    ok = [x for x in run.latency_ms[:fixed] if x is not None]
    completed = len(ok)
    lateness_ms = [x * 1e3 for x in run.lateness_s] or [0.0]
    config.update(
        workload=name, seed=seed, seconds=seconds, nproc=NPROC,
        omp_threads="default", shards=SHARDS, cache_cap=spec["cache_cap"],
        connections=1 if spec["rate"] is None else CONNECTIONS,
        build_type=cmake_cache("CMAKE_BUILD_TYPE"),
        march="native" if cmake_cache("CLPP_NATIVE") in ("ON", "") else "none",
        fixture_sha256=FIXTURE_SHA256,
        setup_s=[round(x, 4) for x in setups],
        launch_p50_ms=[round(x[0], 4) for x in slices],
        launch_rps=[round(x[1], 2) for x in slices],
        launch_cpu_ms_per_req=[round(x[2], 3) for x in slices],
        clause_rows_share=round(clause_share, 4),
        latency_samples=completed, measured_s=round(elapsed, 3),
        lateness_max_ms=round(max(lateness_ms), 3),
        lateness_p99_ms=round(bench.percentile(lateness_ms, 0.99), 3),
        attempted=attempted, errors=errors, lost=lost,
        mismatches=len(mismatches))
    correct = not mismatches and lost == 0

    if not trace:
        metrics = {
            "setup_s": (bench.median(setups), "s"),
            # Medians over launches: one disturbed launch does not move them.
            "p50_ms": (bench.median([x[0] for x in slices]), "ms"),
            "throughput_rps": (bench.median([x[1] for x in slices]), "1/s"),
            "cpu_ms_per_req": (bench.median([x[2] for x in slices]), "ms"),
            "rss_mb": (bench.median(rss), "MB"),
            "ok_share": (completed / max(1, fixed), "share"),
        }
        if completed >= bench.P99_MIN_SAMPLES:
            metrics["p99_ms"] = (bench.p99(ok), "ms")
        else:
            config["p99_ms"] = "omitted: %d samples < %d" % (
                completed, bench.P99_MIN_SAMPLES)
    else:
        metrics = layer_metrics(run, fixed, deltas, cpu_sup, cpu_shard)
        metrics["max_rate_rps"] = (search.estimate(), "1/s")
        metrics["error_share"] = ((errors + lost) / max(1, attempted), "share")
        replay = probe_trace(run.codes[:TRACE_SNIPPETS])
        metrics.update(replay_metrics(replay))
        # The untraced p50 of this run's measured phase, to check that the
        # front + queue + batch medians account for it.
        config["p50_ms"] = bench.median([x[0] for x in slices])
        config["trace_snippets"] = replay["snippets"]
        config["self_us_median"] = {k: round(v["self_median_us"], 3)
                                    for k, v in replay["layers"].items()}

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": errors + lost + len(mismatches),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return config, result


def layer_metrics(run, fixed, deltas, cpu_sup, cpu_shard):
    """Per-layer metrics of the measured phase, from the replies' timing
    fields and the front end's clpp.shard_stats.v1 counters."""
    ok = [k for k in range(fixed)
          if k in run.replies and "error" not in run.replies[k]]
    replies = [run.replies[k] for k in ok]

    def parts(k):
        r = run.replies[k]
        # A front-end cache hit replays the stored reply, timing fields and
        # all, though this request never reached a shard.
        if r.get("cached"):
            return 0.0, 0.0, 0.0
        return r["queue_us"] / 1e3, r["batch_us"] / 1e3, r["infer_us"] / 1e3

    # The split of the median request that reached a shard, and of the
    # median request overall for the front end (a cache hit's whole
    # latency is front end), so the parts add up to the latency.
    served = [(run.sent_ms[k], parts(k)) for k in ok
              if not run.replies[k].get("cached")]
    queue, batch, infer = bench.median_split(served)[1] if served else (0, 0, 0)
    front = bench.median_split(
        [(run.sent_ms[k], (run.sent_ms[k] - sum(parts(k)[:2]),)) for k in ok])[1][0]
    per_shard = [sum(col) for col in zip(*(d["served"] for d in deltas))]
    mean_served = sum(per_shard) / len(per_shard)
    n = max(1, len(replies))
    return {
        "serve.queue_ms": (queue, "ms"),
        "serve.batch_ms": (batch, "ms"),
        "serve.infer_ms": (infer, "ms"),
        "shard.front_ms": (front, "ms"),
        "cache.hit_share": (sum(1 for r in replies if r.get("cached")) / n, "share"),
        "serve.coalesced_share": (sum(1 for r in replies if r.get("coalesced")) / n,
                                  "share"),
        "cache.evictions": (sum(d["evictions"] for d in deltas), "count"),
        "shard.balance": (max(per_shard) / mean_served if mean_served else 0.0,
                          "ratio"),
        "shard.supervisor_cpu_share": (cpu_sup / (cpu_sup + cpu_shard)
                                       if cpu_sup + cpu_shard > 0 else 0.0, "share"),
        "admission.overloaded": (sum(d["overloaded"] for d in deltas), "count"),
        "admission.over_quota": (sum(d["over_quota"] for d in deltas), "count"),
    }


def replay_metrics(replay):
    """Per-layer metrics of the in-process traced replay (probe.cpp)."""
    layers = replay["layers"]

    def us(name):
        return layers.get(name, {}).get("median_us", 0.0)

    def rows(name):
        return layers.get(name, {}).get("calls", 0)

    return {
        "core.encode_us": (us("core.encode"), "us"),
        "nn.directive_us": (us("nn.directive"), "us"),
        "nn.private_us": (us("nn.private"), "us"),
        "nn.reduction_us": (us("nn.reduction"), "us"),
        "nn.schedule_us": (us("nn.schedule"), "us"),
        "nn.directive_rows": (rows("nn.directive"), "count"),
        "nn.private_rows": (rows("nn.private"), "count"),
        "nn.reduction_rows": (rows("nn.reduction"), "count"),
        "nn.schedule_rows": (rows("nn.schedule"), "count"),
        "nn.clause_rows_share": (rows("nn.private") / max(1, replay["snippets"]),
                                 "share"),
        "nn.batch1_row_us": (replay["batch1_row_us"], "us"),
        "nn.batch32_row_us": (replay["batch32_row_us"], "us"),
        "core.bucket_rows": (replay["bucket_rows"], "rows"),
        "analysis.analyze_us": (us("analysis.analyze"), "us"),
        "s2s.compar_us": (us("s2s.compar"), "us"),
        "cache.digest_us": (us("cache.digest"), "us"),
        "shard.frame_us": (us("shard.frame"), "us"),
        "trace.overhead_us": (replay["trace_overhead_us"], "us"),
    }


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    try:
        build()
        check_fixture()
        nice = client_priority()
        config, result = run_workload(args.workload, args.seed, args.seconds,
                                      args.trace == 1)
    except (BenchError, subprocess.CalledProcessError, OSError,
            ConnectionError, ValueError) as e:
        log("error: %s" % e)
        return 2
    config["client_nice"] = nice
    with open(os.path.join(WORK, "last_%s.json" % args.workload), "w") as f:
        json.dump({"config": config, "result": result}, f, indent=1)
    print(json.dumps({"config": config}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
