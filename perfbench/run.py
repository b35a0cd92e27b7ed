#!/usr/bin/env python3
"""End-to-end benchmark for fedserve: paper sweeps through real topologies.

Builds cmd/fedserve from the checkout, launches it in the topology a
workload names (a local pool, or a coordinator with two single-slot
workers, in memory or WAL-backed), and drives it over the public HTTP API
from this one process: POST /v1/sweeps, wait for the sweep's SSE "done"
event, GET /result. Every unit of work starts from fresh processes and a
fresh store.

    python3 perfbench/run.py --workload table4-mlp-local --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics. --trace 1 runs the same untraced
units and then one traced unit, which scrapes /metrics on every process,
pulls CPU profiles from /debug/pprof/profile and reads /proc, and reports
the per-layer metrics; it also prints the traced unit's end-to-end numbers
beside the untraced medians (the cost of tracing). The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
See perfbench/README.md for the workloads and what each metric means.
"""

import sys

sys.dont_write_bytecode = True

import argparse
import hashlib
import http.client
import json
import os
import platform
import random
import shutil
import signal
import socket
import statistics
import subprocess
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import scrape  # noqa: E402

BUILD = ROOT / ".bench_build"
BIN = BUILD / "fedserve"
RUNS = BUILD / "runs" / str(os.getpid())
SETUP_SAMPLES = 5  # topology launches per run at least, for a median setup_s
METHODS = ["fedavg", "fedcm", "fedwcm"]
REPLAY_SUBSWEEPS = 110
PROFILE_CHUNK_S = 1


class BenchError(Exception):
    pass


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build():
    """Build fedserve from source into .bench_build, keeping the Go build
    cache and temp files inside the checkout."""
    if not (ROOT / "go.mod").is_file() or not (ROOT / "cmd" / "fedserve").is_dir():
        raise BenchError("no fedserve source under %s" % ROOT)
    for d in ("gocache", "tmp", "gopath", "config"):
        (BUILD / d).mkdir(parents=True, exist_ok=True)
    # XDG_CONFIG_HOME keeps the go command's telemetry counters in here too.
    env = dict(os.environ,
               GOCACHE=str(BUILD / "gocache"), GOPATH=str(BUILD / "gopath"),
               TMPDIR=str(BUILD / "tmp"), XDG_CONFIG_HOME=str(BUILD / "config"),
               GOTOOLCHAIN="local", GOENV="off", GOFLAGS="")
    r = subprocess.run(["go", "build", "-o", str(BIN), "./cmd/fedserve"],
                       cwd=ROOT, env=env, capture_output=True, text=True)
    if r.returncode != 0:
        raise BenchError("go build failed:\n" + r.stderr)
    ver = subprocess.run(["go", "env", "GOVERSION"], cwd=ROOT, env=env,
                         capture_output=True, text=True).stdout.strip()
    return ver


def host_block(go_version):
    cpus = len(os.sched_getaffinity(0))
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    try:
        # The ceiling keeps git from finding a repository above the checkout.
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
                           capture_output=True, text=True, timeout=5)
        if r.returncode == 0:
            commit = r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for p in sorted(ROOT.glob("**/*.go")) + [ROOT / "go.mod"]:
        if BUILD in p.parents:
            continue
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return {
        "nproc": cpus,
        "gomaxprocs": int(os.environ.get("GOMAXPROCS") or cpus),
        "cpu_model": model or platform.processor(),
        "go_version": go_version,
        "commit": commit,
        "source_sha256": h.hexdigest()[:16],
    }


# --------------------------------------------------------------- topology

def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def get(port, path, timeout=5.0):
    c = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        c.request("GET", path)
        r = c.getresponse()
        return r.status, r.read()
    finally:
        c.close()


class Proc:
    def __init__(self, role, args, port, logpath):
        self.role, self.port = role, port
        self.logf = open(logpath, "wb")
        self.logpath = logpath
        self.p = subprocess.Popen([str(BIN)] + args, stdout=self.logf,
                                  stderr=subprocess.STDOUT, cwd=ROOT)

    def ready(self):
        if self.p.poll() is not None:
            raise BenchError("%s exited with %s:\n%s" % (
                self.role, self.p.returncode, self.logtail()))
        try:
            return get(self.port, "/readyz", timeout=1)[0] == 200
        except OSError:
            return False

    def logtail(self):
        try:
            return Path(self.logpath).read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    def stop(self):
        if self.p.poll() is None:
            self.p.terminate()
            try:
                self.p.wait(10)
            except subprocess.TimeoutExpired:
                self.p.kill()
                self.p.wait()
        self.logf.close()


class Topology:
    """One system under test: "local" (fedserve -workers 2), "remote" (an
    in-memory coordinator plus two -slots 1 workers) or "wal" (the same,
    WAL-backed). Every process serves /metrics and /debug/pprof."""

    def __init__(self, kind, rundir, store=None):
        self.kind, self.rundir = kind, Path(rundir)
        self.store = Path(store) if store else self.rundir / "store"
        self.procs = []
        self.slots = 0 if kind == "local" else 2

    def start(self):
        """Launch every process and wait until ready; returns seconds."""
        self.rundir.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        port = free_port()
        args = ["-addr", "127.0.0.1:%d" % port, "-store", str(self.store)]
        if self.kind == "local":
            args += ["-workers", "2"]
        else:
            args += ["-remote"]
            if self.kind == "wal":
                args += ["-wal", str(self.rundir / "coord.wal")]
        self.server = Proc("server", args, port, self.rundir / "server.log")
        self.procs.append(self.server)
        self.wait_ready([self.server])
        workers = []
        for i in range(self.slots):
            wport = free_port()
            w = Proc("worker", ["-worker", "-join", "http://127.0.0.1:%d" % port,
                                "-slots", "1", "-name", "w%d" % i,
                                "-obs-addr", "127.0.0.1:%d" % wport],
                     wport, self.rundir / ("worker%d.log" % i))
            self.procs.append(w)
            workers.append(w)
        self.wait_ready(workers)
        return time.perf_counter() - t0

    @staticmethod
    def wait_ready(procs, timeout=30.0):
        deadline = time.monotonic() + timeout
        pending = list(procs)
        while pending:
            pending = [p for p in pending if not p.ready()]
            if pending:
                if time.monotonic() > deadline:
                    raise BenchError("%s not ready after %.0fs:\n%s" % (
                        pending[0].role, timeout, pending[0].logtail()))
                time.sleep(0.002)

    def cpu_s(self, role=None):
        return sum(scrape.proc_cpu_s(p.p.pid) for p in self.procs
                   if role is None or p.role == role)

    def peak_rss_mb(self):
        return sum(scrape.proc_peak_rss_mb(p.p.pid) for p in self.procs)

    def scrape(self):
        out = []
        for p in self.procs:
            status, body = get(p.port, "/metrics")
            if status != 200:
                raise BenchError("%s /metrics: HTTP %d" % (p.role, status))
            out.append(scrape.parse_exposition(body.decode()))
        return out

    def stop(self):
        for p in reversed(self.procs):  # workers deregister before the server goes
            p.stop()
        self.procs = []


class Profiler:
    """Back-to-back CPU profiles of one process until stopped."""

    def __init__(self, proc):
        self.proc, self.chunks, self.err = proc, [], None
        self.halt = threading.Event()
        self.t = threading.Thread(target=self.loop, daemon=True)
        self.t.start()

    def loop(self):
        try:
            while not self.halt.is_set():
                status, body = get(self.proc.port,
                                   "/debug/pprof/profile?seconds=%d" % PROFILE_CHUNK_S,
                                   timeout=PROFILE_CHUNK_S + 30)
                if status != 200:
                    raise BenchError("pprof HTTP %d" % status)
                self.chunks.append(body)
        except Exception as e:  # surfaced by stop()
            self.err = e

    def stop(self):
        self.halt.set()
        self.t.join()
        if self.err:
            raise BenchError("profiling %s: %s" % (self.proc.role, self.err))
        return [scrape.parse_profile(c) for c in self.chunks]


# ------------------------------------------------------------------ client

class Sweep:
    """One sweep driven to completion: POST, SSE done, GET /result."""

    def __init__(self, port, spec, cells):
        self.spec, self.cells = spec, cells
        body = json.dumps(spec).encode()
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=170)
        try:
            self.t_submit = time.perf_counter()
            conn.request("POST", "/v1/sweeps", body, {"Content-Type": "application/json"})
            r = conn.getresponse()
            payload = r.read()
            self.t_posted = time.perf_counter()
            if r.status not in (200, 202):  # 429/503 would be a refusal
                raise BenchError("POST /v1/sweeps: HTTP %d %s" % (r.status, payload[:300]))
            sid = json.loads(payload)["id"]
            self.done = self.wait_done(port, sid)
            self.t_done = time.perf_counter()
            conn.request("GET", "/v1/sweeps/%s/result" % sid)
            r = conn.getresponse()
            payload = r.read()
            self.t_result = time.perf_counter()
            if r.status != 200:
                raise BenchError("GET result: HTTP %d %s" % (r.status, payload[:300]))
            self.result = json.loads(payload)
        finally:
            conn.close()

    @staticmethod
    def wait_done(port, sid):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=170)
        try:
            conn.request("GET", "/v1/sweeps/%s/events" % sid)
            r = conn.getresponse()
            if r.status != 200:
                raise BenchError("sweep events: HTTP %d" % r.status)
            event = None
            while True:
                line = r.readline()
                if not line:
                    raise BenchError("sweep event stream ended before done")
                line = line.decode().rstrip("\r\n")
                if line.startswith("event:"):
                    event = line[6:].strip()
                elif line.startswith("data:") and event == "done":
                    return json.loads(line[5:])
        finally:
            conn.close()

    @property
    def latency_ms(self):
        return (self.t_result - self.t_submit) * 1e3

    @property
    def to_done_s(self):
        return self.t_done - self.t_submit


def result_hash(res):
    """SHA-256 over /result groups + table; the env_cache and dispatch
    blocks are left out because their counters differ by topology."""
    blob = json.dumps({"groups": res["groups"], "table": res["table"]},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def check_sweep(sw, computed, problems):
    """Output checks on one finished sweep; appends to problems. computed
    says whether every cell must be computed (fresh store) or every cell
    served from the store."""
    res, cells = sw.result, sw.cells
    want = {"status": "done", "total": cells, "failed": 0,
            "computed": cells if computed else 0, "cached": 0 if computed else cells}
    for k, v in want.items():
        if res.get(k) != v:
            problems.append("result %s=%r, want %r" % (k, res.get(k), v))
    seeds = len(sw.spec.get("seeds") or []) or sw.spec.get("seed_count", 1)
    groups = res.get("groups") or []
    if len(groups) * seeds != cells:
        problems.append("%d groups of %d seeds for %d cells" % (len(groups), seeds, cells))
    for g in groups:
        if g.get("n") != seeds or not (0 < g.get("mean", 0) <= 1) or not g.get("shot"):
            problems.append("bad group %s" % json.dumps(g)[:200])
            break
    if sw.done.get("status") != "done":
        problems.append("SSE done event status %r" % sw.done.get("status"))


def accuracy(res):
    groups = res["groups"]
    return (statistics.fmean(g["mean"] for g in groups),
            statistics.fmean(g["shot"]["tail"] for g in groups))


# --------------------------------------------------------------- workloads

def table4_spec(seed):
    return {"name": "table4", "methods": METHODS, "betas": [0.1, 0.6],
            "ifs": [1, 0.4, 0.1, 0.06, 0.04, 0.01], "seeds": [seed],
            "effort": 0.5}, 36


def conv_spec(seed):
    return {"name": "conv-resnet", "datasets": ["cifar10-img"], "model": "resnet",
            "methods": METHODS, "betas": [0.1, 0.6], "ifs": [1, 0.1, 0.01],
            "seeds": [seed], "effort": 0.3}, 18


def tiny_spec(seed, base_off=0, count=20):
    return {"name": "tiny-cells", "methods": METHODS, "betas": [0.1, 0.6],
            "ifs": [1, 0.1, 0.01], "seed_base": 20 * seed + 1 + base_off,
            "seed_count": count, "async": ["sync", "async"], "clients": [10],
            "local_epochs": [1], "sample_rates": [0.2], "effort": 0.01}, 36 * count


def replay_sequence(seed):
    """The fixed cached-replay sequence: the whole populated grid, then
    distinct overlapping sub-ranges of its 20 seeds in a fixed order."""
    pairs = [(off, n) for off in range(20) for n in range(1, 21 - off)
             if (off, n) != (0, 20)]
    random.Random(0).shuffle(pairs)
    return [tiny_spec(seed)] + [tiny_spec(seed, off, n)
                                for off, n in pairs[:REPLAY_SUBSWEEPS - 1]]


WORKLOADS = {
    "table4-mlp-local": ("local", table4_spec),
    "conv-resnet-remote": ("remote", conv_spec),
    "tiny-cells-wal": ("wal", tiny_spec),
    "cached-replay": ("local", None),
}


class Run:
    """Collects one invocation's samples, checks and per-layer figures."""

    def __init__(self, workload, seed, seconds):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.kind = WORKLOADS[workload][0]
        self.setups, self.units = [], []
        self.problems, self.hashes = [], {}
        self.store, self.populate_s = None, 0.0
        self.attempted = self.failed = 0
        self.acc = None
        self.seq = 0

    def rundir(self):
        self.seq += 1
        return RUNS / ("%s-%d" % (self.workload, self.seq))

    def note_hash(self, key, res):
        h = result_hash(res)
        if self.hashes.setdefault(key, h) != h:
            self.problems.append("result hash for %s differs between units" % key)

    def account(self, sw):
        self.attempted += sw.cells
        self.failed += sw.result.get("failed", 0)

    # A unit is one fresh topology doing one workload's timed work. traced
    # units return the per-layer figures instead of adding e2e samples.
    def unit(self, trace=False):
        if self.workload == "cached-replay":
            return self.replay_pass(trace)
        spec, cells = WORKLOADS[self.workload][1](self.seed)
        rundir = self.rundir()
        topo = Topology(self.kind, rundir)
        try:
            setup = topo.start()
            tr = Tracer(topo) if trace else None
            cpu0 = topo.cpu_s()
            sw = Sweep(topo.server.port, spec, cells)
            cpu = topo.cpu_s() - cpu0
            rss = topo.peak_rss_mb()
            layers = tr.finish([sw]) if tr else None
        finally:
            topo.stop()
            shutil.rmtree(rundir, ignore_errors=True)
        self.account(sw)
        check_sweep(sw, True, self.problems)
        self.note_hash("grid", sw.result)
        if self.acc is None:
            self.acc = accuracy(sw.result)
        u = {"setup_s": setup, "cells": cells, "to_done_s": sw.to_done_s,
             "cpu_s": cpu, "rss_mb": rss, "lat_ms": [sw.latency_ms]}
        return (u, layers) if trace else u

    def populate(self):
        """cached-replay set-up, part 1: compute the tiny grid into a store
        that every pass of this run then replays."""
        self.store = RUNS / "store"
        spec, cells = tiny_spec(self.seed)
        topo = Topology("local", self.rundir(), self.store)
        t0 = time.perf_counter()
        try:
            topo.start()
            sw = Sweep(topo.server.port, spec, cells)
            self.populate_s = time.perf_counter() - t0
        finally:
            topo.stop()
        self.account(sw)
        check_sweep(sw, True, self.problems)
        self.note_hash(0, sw.result)
        self.acc = accuracy(sw.result)

    def replay_pass(self, trace):
        topo = Topology("local", self.rundir(), self.store)
        sweeps = []
        try:
            setup = topo.start()
            tr = Tracer(topo, compute=False) if trace else None
            cpu0 = topo.cpu_s()
            for i, (spec, cells) in enumerate(replay_sequence(self.seed)):
                sw = Sweep(topo.server.port, spec, cells)
                sweeps.append(sw)
                self.account(sw)
                check_sweep(sw, False, self.problems)
                self.note_hash(i, sw.result)
            cpu = topo.cpu_s() - cpu0
            rss = topo.peak_rss_mb()
            layers = tr.finish(sweeps) if tr else None
        finally:
            topo.stop()
        u = {"setup_s": setup, "cells": sum(s.cells for s in sweeps),
             "to_done_s": sum(s.to_done_s for s in sweeps), "cpu_s": cpu,
             "rss_mb": rss, "lat_ms": [s.latency_ms for s in sweeps]}
        return (u, layers) if trace else u

    def measure(self):
        """Untraced units until --seconds have passed (at least one), then
        extra launches until SETUP_SAMPLES set-ups were timed."""
        if self.workload == "cached-replay":
            self.populate()
        t0 = time.perf_counter()
        while not self.units or time.perf_counter() - t0 < self.seconds:
            u = self.unit()
            self.units.append(u)
            self.setups.append(u["setup_s"])
        while len(self.setups) < SETUP_SAMPLES:
            self.setups.append(self.probe_setup())

    def probe_setup(self):
        rundir = self.rundir()
        topo = Topology(self.kind, rundir, self.store)
        try:
            return topo.start()
        finally:
            topo.stop()
            shutil.rmtree(rundir, ignore_errors=True)

    def e2e(self, units, setups):
        lat = sorted(x for u in units for x in u["lat_ms"])
        p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
        vals = {
            "cells_per_s": (statistics.median(u["cells"] / u["to_done_s"] for u in units), "1/s"),
            "sweep_p50_ms": (statistics.median(lat), "ms"),
            "sweep_p90_ms": (p90, "ms"),
            "cpu_s_per_cell": (statistics.median(u["cpu_s"] / u["cells"] for u in units), "s"),
            "peak_rss_mb": (statistics.median(u["rss_mb"] for u in units), "MiB"),
            "setup_s": (self.populate_s + statistics.median(setups), "s"),
        }
        return vals, len(lat)


class Tracer:
    """The traced unit's outside view: /metrics before and after, CPU
    profiles of every process throughout, /proc CPU per role."""

    def __init__(self, topo, compute=True):
        self.topo, self.compute = topo, compute
        self.before = topo.scrape()
        self.cpu0 = {r: topo.cpu_s(r) for r in ("server", "worker")}
        self.profilers = [Profiler(p) for p in topo.procs]

    def finish(self, sweeps):
        topo = self.topo
        cpu = {r: topo.cpu_s(r) - self.cpu0[r] for r in ("server", "worker")}
        after = topo.scrape()
        profiles = [prof for p in self.profilers for prof in p.stop()]
        missing = scrape.missing_families(
            [fams for fams, _ in after],
            compute=self.compute, remote=topo.kind != "local")
        if missing:
            raise BenchError("metric families missing from every process: %s" % ", ".join(missing))
        d = {}
        for (_, b), (_, a) in zip(self.before, after):
            for k, v in scrape.delta(b, a).items():
                d[k] = d.get(k, 0.0) + v
        t = lambda name, **m: scrape.total(d, name, **m)  # noqa: E731
        wall = sum(s.to_done_s for s in sweeps)
        http_busy = sum(v for (n, labels), v in d.items()
                        if n == "fedwcm_http_request_seconds_sum"
                        and not dict(labels).get("route", "").endswith("/events"))
        lookups = t("fedwcm_envcache_hits_total") + t("fedwcm_envcache_misses_total")
        hold = t("fedwcm_dispatch_lease_hold_seconds_sum")
        slot_s = topo.slots * wall
        gets = t("fedwcm_store_get_seconds_count")
        prof_s, shares = scrape.profile_buckets(profiles)
        m = {
            "serve.sweeps": (len(sweeps), "count"),
            "serve.submit_ms": (statistics.median((s.t_posted - s.t_submit) * 1e3 for s in sweeps), "ms"),
            "serve.result_ms": (statistics.median((s.t_result - s.t_done) * 1e3 for s in sweeps), "ms"),
            "serve.http_busy_s": (http_busy, "s"),
            "sweep.env_builds": (t("fedwcm_envcache_misses_total"), "count"),
            "sweep.envcache_lookups": (lookups, "count"),
            "sweep.envcache_hit_ratio": (t("fedwcm_envcache_hits_total") / lookups if lookups else 0.0, "ratio"),
            "dispatch.queue_wait_s": (t("fedwcm_dispatch_lease_wait_seconds_sum"), "s"),
            "dispatch.lease_hold_s": (hold, "s"),
            "dispatch.slot_s": (slot_s, "s"),
            "dispatch.slot_idle_share": (max(0.0, 1 - hold / slot_s) if slot_s else 0.0, "ratio"),
            "dispatch.leases": (t("fedwcm_dispatch_lease_wait_seconds_count"), "count"),
            "dispatch.heartbeats": (t("fedwcm_worker_heartbeats_total"), "count"),
            "dispatch.requeues": (t("fedwcm_dispatch_requeues_total"), "count"),
            "dispatch.lease_expiries": (t("fedwcm_dispatch_lease_expiries_total"), "count"),
            "dispatch.duplicate_uploads": (t("fedwcm_dispatch_duplicate_uploads_total"), "count"),
            "dispatch.wal_records": (t("fedwcm_dispatch_wal_records_total"), "count"),
            "dispatch.wal_checkpoints": (t("fedwcm_dispatch_wal_checkpoints_total"), "count"),
            "wire.result_bytes": (t("fedwcm_wire_bytes_total", kind="result", dir="rx"), "bytes"),
            "wire.heartbeat_bytes": (t("fedwcm_wire_bytes_total", kind="stats", dir="rx"), "bytes"),
            "wire.encode_s": (t("fedwcm_wire_encode_seconds_sum"), "s"),
            "wire.decode_s": (t("fedwcm_wire_decode_seconds_sum"), "s"),
            "store.puts": (t("fedwcm_store_puts_total"), "count"),
            "store.put_s": (t("fedwcm_store_put_seconds_sum"), "s"),
            "store.put_bytes": (t("fedwcm_store_put_bytes_total"), "bytes"),
            "store.gets": (gets, "count"),
            "store.get_s": (t("fedwcm_store_get_seconds_sum"), "s"),
            "store.mem_hit_ratio": (t("fedwcm_store_mem_hits_total") / gets if gets else 0.0, "ratio"),
            "fl.rounds": (t("fedwcm_fl_rounds_total"), "count"),
            "fl.round_s": (t("fedwcm_fl_round_seconds_sum"), "s"),
            "fl.client_trains": (t("fedwcm_fl_client_steps_total"), "count"),
            "fl.client_train_s": (t("fedwcm_fl_client_step_seconds_sum"), "s"),
            "fl.async_events": (t("fedwcm_fl_async_events_total"), "count"),
            "proc.cpu_s.server": (cpu["server"], "s"),
            "proc.cpu_s.worker": (cpu["worker"], "s"),
            "pprof.cpu_s": (prof_s, "s"),
        }
        for name, share in shares.items():
            m[name] = (share, "ratio")
        return m


# -------------------------------------------------------------------- main

def fmt(v):
    return "%.6g" % v


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0:
        ap.error("--seed must be >= 0")

    def on_term(signum, frame):
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, on_term)

    run = Run(a.workload, a.seed, a.seconds)
    try:
        t_build = time.perf_counter()
        go_version = build()
        log("built fedserve in %.1fs" % (time.perf_counter() - t_build))
        print("host: " + json.dumps(host_block(go_version), sort_keys=True))
        run.measure()
        e2e, nlat = run.e2e(run.units, run.setups)
        print("workload %s seed %d: %d units, %d sweeps timed, %d set-ups" % (
            a.workload, a.seed, len(run.units), nlat, len(run.setups)))
        for i, u in enumerate(run.units):
            print("  unit %d: %d cells, %s cells/s, %s s CPU, set-up %s s" % (
                i, u["cells"], fmt(u["cells"] / u["to_done_s"]), fmt(u["cpu_s"]), fmt(u["setup_s"])))
        print("set-ups (s): " + " ".join(fmt(s) for s in run.setups))
        print("failed_share %s (%d of %d cells attempted failed; a refused sweep ends the run)" % (
            fmt(run.failed / run.attempted), run.failed, run.attempted))
        for name, (v, unit) in e2e.items():
            print("  %-16s %14s %s" % (name, fmt(v), unit))
        final_acc, tail_acc = run.acc
        print("final_acc %s, tail_acc %s (mean over the grid's groups; fixed by the seed)" % (
            fmt(final_acc), fmt(tail_acc)))
        metrics = e2e
        if a.trace:
            (u, layers) = run.unit(trace=True)
            traced, _ = run.e2e([u], [u["setup_s"]])
            print("tracing overhead (traced unit vs untraced median):")
            for name, (v, unit) in traced.items():
                base = e2e[name][0]
                print("  %-16s traced %12s untraced %12s %s (%+.1f%%)" % (
                    name, fmt(v), fmt(base), unit, 100 * (v / base - 1) if base else 0))
            layers["fl.final_acc"] = (final_acc, "ratio")
            layers["fl.tail_acc"] = (tail_acc, "ratio")
            print("per-layer (traced unit):")
            for name, (v, unit) in layers.items():
                print("  %-28s %14s %s" % (name, fmt(v), unit))
            metrics = layers
    except BenchError as e:
        log("perfbench: %s" % e)
        return 1
    finally:
        shutil.rmtree(RUNS, ignore_errors=True)

    for p in run.problems:
        log("check failed: %s" % p)
    correct = not run.problems and run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
