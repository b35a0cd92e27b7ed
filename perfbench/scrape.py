"""Outside-in measurement helpers for the fedserve benchmark.

Everything here reads what a running fedserve process already exposes:
Prometheus text from /metrics, CPU profiles from /debug/pprof/profile, and
CPU time and peak RSS from /proc. Nothing is imported from the program.

The metric families and profile functions the benchmark reads are listed
in FAMILIES and PROFILE_BUCKETS; test_scrape.py checks that each still
exists in the program's source, so a rename fails a test instead of making
the benchmark report 0.
"""

import gzip
import os
import re

# Metric families the per-layer report reads. The driver refuses a traced
# run in which any of them is absent from every process's /metrics.
# COMPUTE_FAMILIES register once a process trains a cell; REMOTE_FAMILIES
# exist only where a coordinator and workers run.
FAMILIES = [
    "fedwcm_http_request_seconds",
    "fedwcm_envcache_hits_total",
    "fedwcm_envcache_misses_total",
    "fedwcm_wire_encode_seconds",
    "fedwcm_store_puts_total",
    "fedwcm_store_put_seconds",
    "fedwcm_store_put_bytes_total",
    "fedwcm_store_get_seconds",
    "fedwcm_store_mem_hits_total",
]
COMPUTE_FAMILIES = [
    "fedwcm_fl_rounds_total",
    "fedwcm_fl_round_seconds",
    "fedwcm_fl_client_steps_total",
    "fedwcm_fl_client_step_seconds",
    "fedwcm_fl_async_events_total",
]
REMOTE_FAMILIES = [
    "fedwcm_wire_bytes_total",
    "fedwcm_wire_decode_seconds",
    "fedwcm_dispatch_lease_wait_seconds",
    "fedwcm_dispatch_lease_hold_seconds",
    "fedwcm_dispatch_requeues_total",
    "fedwcm_dispatch_lease_expiries_total",
    "fedwcm_dispatch_duplicate_uploads_total",
    "fedwcm_dispatch_wal_records_total",
    "fedwcm_dispatch_wal_checkpoints_total",
    "fedwcm_worker_heartbeats_total",
]

# Profile buckets: a sample counts toward a bucket when any frame of its
# stack (inlined frames included) is one of the bucket's functions, so each
# share is cumulative CPU under those functions.
PROFILE_BUCKETS = {
    "tensor.gemm_cpu_share": ["fedwcm/internal/tensor.gemmBlock"],
    "tensor.gemm_edge_cpu_share": ["fedwcm/internal/tensor.gemmEdge"],
    "tensor.pack_cpu_share": ["fedwcm/internal/tensor.packTranspose"],
    "nn.conv_lowering_cpu_share": [
        "fedwcm/internal/nn.(*Conv2D).im2col",
        "fedwcm/internal/nn.(*Conv2D).col2im",
    ],
    "nn.batchnorm_cpu_share": [
        "fedwcm/internal/nn.(*BatchNorm).Forward",
        "fedwcm/internal/nn.(*BatchNorm).Backward",
    ],
    "runtime.gc_cpu_share": [
        "runtime.gcBgMarkWorker",
        "runtime.gcAssistAlloc",
        "runtime.bgsweep",
        "runtime.bgscavenge",
    ],
}


# ---------------------------------------------------------------- /metrics

_SAMPLE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})?\s+(\S+)$')
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_exposition(text):
    """Parse Prometheus text exposition into (families, samples).

    families maps family name to its TYPE; samples maps
    (series name, frozenset of label pairs) to the float value.
    """
    families, samples = {}, {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 4 and parts[1] == "TYPE":
                families[parts[2]] = parts[3]
            continue
        m = _SAMPLE.match(line)
        if not m:
            raise ValueError("unparseable exposition line: %r" % line)
        labels = frozenset(_LABEL.findall(m.group(3) or ""))
        samples[(m.group(1), labels)] = float(m.group(4))
    return families, samples


def delta(before, after):
    """Per-series difference after - before; a series new in after counts
    from 0. Gauges are meaningless as deltas and callers do not read them."""
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


def total(samples, name, **match):
    """Sum of every series called name whose labels include match."""
    want = set(match.items())
    return sum(v for (n, labels), v in samples.items()
               if n == name and want <= labels)


def missing_families(family_sets, compute, remote):
    """Expected families absent from every one of the given family maps."""
    seen = set()
    for fams in family_sets:
        seen.update(fams)
    want = (FAMILIES + (COMPUTE_FAMILIES if compute else [])
            + (REMOTE_FAMILIES if remote else []))
    return [f for f in want if f not in seen]


# ------------------------------------------------------------ pprof decode

def _varint(buf, i):
    shift = result = 0
    while True:
        b = buf[i]
        i += 1
        result |= (b & 0x7F) << shift
        if b < 0x80:
            return result, i
        shift += 7


def _fields(buf):
    """Yield (field number, wire type, value) for one protobuf message.
    Length-delimited values are returned as bytes."""
    i, n = 0, len(buf)
    while i < n:
        key, i = _varint(buf, i)
        field, wt = key >> 3, key & 7
        if wt == 0:
            v, i = _varint(buf, i)
        elif wt == 1:
            v, i = int.from_bytes(buf[i:i + 8], "little"), i + 8
        elif wt == 2:
            ln, i = _varint(buf, i)
            v, i = bytes(buf[i:i + ln]), i + ln
        elif wt == 5:
            v, i = int.from_bytes(buf[i:i + 4], "little"), i + 4
        else:
            raise ValueError("unsupported protobuf wire type %d" % wt)
        yield field, wt, v


def _ints(wt, v):
    """A repeated integer field, packed (wire type 2) or not."""
    if wt != 2:
        return [v]
    out, i = [], 0
    while i < len(v):
        x, i = _varint(v, i)
        out.append(x)
    return out


def _signed(x):
    return x - (1 << 64) if x >= 1 << 63 else x


def parse_profile(data):
    """Decode a pprof CPU profile (gzip-compressed profile.proto) into
    (samples, cpu value index) where samples is a list of
    (frozenset of function names on the stack, [values])."""
    if data[:2] == b"\x1f\x8b":
        data = gzip.decompress(data)
    strings, functions, locations, raw, types = [], {}, {}, [], []
    for field, wt, v in _fields(data):
        if field == 1:  # sample_type
            vt = dict((f, x) for f, _, x in _fields(v))
            types.append(vt.get(1, 0))
        elif field == 2:  # sample
            locs, vals = [], []
            for f, w, x in _fields(v):
                if f == 1:
                    locs.extend(_ints(w, x))
                elif f == 2:
                    vals.extend(_signed(y) for y in _ints(w, x))
            raw.append((locs, vals))
        elif field == 4:  # location
            lid, fns = 0, []
            for f, _, x in _fields(v):
                if f == 1:
                    lid = x
                elif f == 4:
                    fid = dict((lf, lx) for lf, _, lx in _fields(x)).get(1, 0)
                    fns.append(fid)
            locations[lid] = fns
        elif field == 5:  # function
            fn = dict((f, x) for f, _, x in _fields(v))
            functions[fn.get(1, 0)] = fn.get(2, 0)
        elif field == 6:  # string_table
            strings.append(v.decode("utf-8", "replace"))
    names = {fid: strings[sidx] for fid, sidx in functions.items()}
    samples = []
    for locs, vals in raw:
        stack = frozenset(names.get(fid, "") for lid in locs
                          for fid in locations.get(lid, []))
        samples.append((stack, vals))
    cpu = [strings[t] for t in types].index("cpu")  # ValueError if not a CPU profile
    return samples, cpu


def profile_buckets(profiles):
    """Bucket CPU across decoded profiles. Returns (total cpu seconds,
    {bucket: share of total}) with every PROFILE_BUCKETS key present."""
    totals = {b: 0 for b in PROFILE_BUCKETS}
    all_ns = 0
    for samples, cpu in profiles:
        for stack, vals in samples:
            ns = vals[cpu]
            all_ns += ns
            for bucket, fns in PROFILE_BUCKETS.items():
                if any(fn in stack for fn in fns):
                    totals[bucket] += ns
    shares = {b: (ns / all_ns if all_ns else 0.0) for b, ns in totals.items()}
    return all_ns / 1e9, shares


# ------------------------------------------------------------------- /proc

_TICK = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid):
    """User + system CPU seconds a live process has used."""
    with open("/proc/%d/stat" % pid) as f:
        stat = f.read()
    # The command name may hold spaces; fields resume after its ')'.
    fields = stat[stat.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def proc_peak_rss_mb(pid):
    """Peak resident set size (VmHWM) of a live process, in MiB."""
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError("no VmHWM for pid %d" % pid)
