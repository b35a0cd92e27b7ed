"""Tests for the benchmark's own parsing of /metrics deltas and pprof
profiles, and a check that every metric family and profiled function the
benchmark reads still exists in the program's source.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import gzip
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import scrape  # noqa: E402

ROOT = HERE.parent

EXPOSITION_BEFORE = """\
# HELP fedwcm_store_puts_total Artifacts written.
# TYPE fedwcm_store_puts_total counter
fedwcm_store_puts_total 10
# HELP fedwcm_store_put_seconds Put latency.
# TYPE fedwcm_store_put_seconds histogram
fedwcm_store_put_seconds_bucket{le="0.001"} 4
fedwcm_store_put_seconds_bucket{le="+Inf"} 10
fedwcm_store_put_seconds_sum 0.5
fedwcm_store_put_seconds_count 10
# HELP fedwcm_http_request_seconds Request latency.
# TYPE fedwcm_http_request_seconds histogram
fedwcm_http_request_seconds_sum{route="/v1/sweeps"} 0.25
fedwcm_http_request_seconds_sum{route="/v1/sweeps/{id}/events"} 3
"""

EXPOSITION_AFTER = """\
# TYPE fedwcm_store_puts_total counter
fedwcm_store_puts_total 730
# TYPE fedwcm_store_put_seconds histogram
fedwcm_store_put_seconds_bucket{le="0.001"} 400
fedwcm_store_put_seconds_bucket{le="+Inf"} 730
fedwcm_store_put_seconds_sum 1.75
fedwcm_store_put_seconds_count 730
# TYPE fedwcm_http_request_seconds histogram
fedwcm_http_request_seconds_sum{route="/v1/sweeps"} 0.5
fedwcm_http_request_seconds_sum{route="/v1/sweeps/{id}/events"} 9
# TYPE fedwcm_wire_bytes_total counter
fedwcm_wire_bytes_total{kind="result",dir="rx"} 9.5864e+04
fedwcm_wire_bytes_total{kind="stats",dir="rx"} 12
fedwcm_wire_bytes_total{kind="result",dir="tx"} 7
fedwcm_fl_diag{metric="say \\"hi\\""} 1
"""


class ExpositionTest(unittest.TestCase):
    def test_delta_and_totals(self):
        fb, before = scrape.parse_exposition(EXPOSITION_BEFORE)
        fa, after = scrape.parse_exposition(EXPOSITION_AFTER)
        self.assertEqual(fb["fedwcm_store_put_seconds"], "histogram")
        self.assertEqual(fa["fedwcm_wire_bytes_total"], "counter")
        d = scrape.delta(before, after)
        self.assertEqual(scrape.total(d, "fedwcm_store_puts_total"), 720)
        self.assertAlmostEqual(scrape.total(d, "fedwcm_store_put_seconds_sum"), 1.25)
        self.assertEqual(scrape.total(d, "fedwcm_store_put_seconds_count"), 720)
        # A series that first appears after the baseline counts from zero.
        self.assertEqual(scrape.total(d, "fedwcm_wire_bytes_total", kind="result", dir="rx"), 95864)
        self.assertEqual(scrape.total(d, "fedwcm_wire_bytes_total", kind="result"), 95871)
        self.assertEqual(scrape.total(d, "fedwcm_wire_bytes_total"), 95883)
        self.assertEqual(scrape.total(d, "fedwcm_http_request_seconds_sum", route="/v1/sweeps"), 0.25)
        self.assertEqual(scrape.total(d, "fedwcm_no_such_series"), 0)

    def test_escaped_label_value(self):
        _, s = scrape.parse_exposition(EXPOSITION_AFTER)
        self.assertIn(("fedwcm_fl_diag", frozenset({("metric", 'say \\"hi\\"')})), s)

    def test_garbage_line_is_an_error(self):
        with self.assertRaises(ValueError):
            scrape.parse_exposition("fedwcm_x{broken 1 2\n")

    def test_missing_families(self):
        fams, _ = scrape.parse_exposition(EXPOSITION_AFTER)
        missing = scrape.missing_families([fams], compute=False, remote=False)
        self.assertNotIn("fedwcm_store_puts_total", missing)
        self.assertIn("fedwcm_store_get_seconds", missing)
        self.assertNotIn("fedwcm_fl_rounds_total", missing)
        self.assertNotIn("fedwcm_worker_heartbeats_total", missing)
        everything = scrape.missing_families([fams], compute=True, remote=True)
        self.assertIn("fedwcm_fl_rounds_total", everything)
        self.assertIn("fedwcm_worker_heartbeats_total", everything)


# --- a minimal profile.proto encoder, the inverse of scrape.parse_profile

def varint(x):
    out = bytearray()
    while True:
        b = x & 0x7F
        x >>= 7
        if x:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def field(num, value):
    if isinstance(value, int):
        return varint(num << 3) + varint(value)
    return varint(num << 3 | 2) + varint(len(value)) + value


def packed(num, xs):
    return field(num, b"".join(varint(x) for x in xs))


def encode_profile(stacks):
    """stacks: list of (list of locations, each a list of function names
    innermost-inlined first, cpu nanoseconds)."""
    strings = ["", "samples", "count", "cpu", "nanoseconds"]

    def sidx(s):
        if s not in strings:
            strings.append(s)
        return strings.index(s)

    funcs, locs, body = {}, {}, b""
    body += field(1, field(1, 1) + field(2, 2))
    body += field(1, field(1, 3) + field(2, 4))
    for frames, ns in stacks:
        ids = []
        for frame in frames:
            key = tuple(frame)
            if key not in locs:
                lines = b""
                for fn in frame:
                    if fn not in funcs:
                        funcs[fn] = len(funcs) + 1
                    lines += field(4, field(1, funcs[fn]) + field(2, 7))
                locs[key] = len(locs) + 1
                body += field(4, field(1, locs[key]) + field(3, 0x1000 + locs[key]) + lines)
            ids.append(locs[key])
        body += field(2, packed(1, ids) + packed(2, [ns // 10_000_000, ns]))
    for fn, fid in funcs.items():
        body += field(5, field(1, fid) + field(2, sidx(fn)))
    body += b"".join(field(6, s.encode()) for s in strings)
    return gzip.compress(body)


GEMM = "fedwcm/internal/tensor.gemmBlock"
EDGE = "fedwcm/internal/tensor.gemmEdge"
IM2COL = "fedwcm/internal/nn.(*Conv2D).im2col"
MAIN = "main.main"


class ProfileTest(unittest.TestCase):
    def test_buckets(self):
        prof = encode_profile([
            ([["fedwcm/internal/tensor.gemmKernel"], [GEMM], [MAIN]], 50_000_000),
            # gemmEdge inlined into gemmBlock: one location, two lines.
            ([[EDGE, GEMM], [MAIN]], 20_000_000),
            ([[IM2COL], [MAIN]], 10_000_000),
            ([["runtime.scanobject"], ["runtime.gcBgMarkWorker"]], 10_000_000),
            ([["syscall.Syscall"], [MAIN]], 10_000_000),
        ])
        decoded = scrape.parse_profile(prof)
        samples, cpu = decoded
        self.assertEqual(cpu, 1)
        self.assertEqual(len(samples), 5)
        self.assertIn(EDGE, samples[1][0])
        cpu_s, shares = scrape.profile_buckets([decoded, decoded])
        self.assertAlmostEqual(cpu_s, 0.2)
        self.assertEqual(set(shares), set(scrape.PROFILE_BUCKETS))
        self.assertAlmostEqual(shares["tensor.gemm_cpu_share"], 0.7)
        self.assertAlmostEqual(shares["tensor.gemm_edge_cpu_share"], 0.2)
        self.assertAlmostEqual(shares["nn.conv_lowering_cpu_share"], 0.1)
        self.assertAlmostEqual(shares["runtime.gc_cpu_share"], 0.1)
        self.assertEqual(shares["tensor.pack_cpu_share"], 0)

    def test_empty_profile(self):
        self.assertEqual(scrape.profile_buckets([])[0], 0)


def go_sources(d):
    return "\n".join(p.read_text() for p in sorted(d.glob("*.go"))
                     if not p.name.endswith("_test.go"))


def func_decl(name):
    """Regex for the declaration of a qualified Go function name such as
    pkg.fn or pkg.(*T).method."""
    m = re.fullmatch(r"\(\*(\w+)\)\.(\w+)", name)
    if m:
        return r"func \(\w+ \*%s\) %s\(" % (m.group(1), m.group(2))
    return r"func %s\(" % re.escape(name)


@unittest.skipUnless((ROOT / "go.mod").is_file(), "program source not present")
class NamesExistTest(unittest.TestCase):
    """A rename in the program must fail here, not read as 0 in a report."""

    def test_metric_families(self):
        src = "\n".join(go_sources(d) for d in
                        [p for p in (ROOT / "internal").rglob("*") if p.is_dir()])
        for fam in scrape.FAMILIES + scrape.COMPUTE_FAMILIES + scrape.REMOTE_FAMILIES:
            self.assertTrue('"%s"' % fam in src, "metric family %s is gone" % fam)

    def test_profiled_functions(self):
        goroot = subprocess.run(["go", "env", "GOROOT"], capture_output=True,
                                text=True).stdout.strip()
        for bucket, fns in scrape.PROFILE_BUCKETS.items():
            for fn in fns:
                head, _, tail = fn.rpartition("/")
                pkg, _, name = tail.partition(".")
                if head:  # fedwcm/internal/<pkg>
                    d = ROOT / head[len("fedwcm/"):] / pkg
                else:
                    self.assertTrue(goroot, "go env GOROOT failed")
                    d = Path(goroot) / "src" / pkg
                self.assertTrue(re.search(func_decl(name), go_sources(d)),
                                "%s: %s is gone" % (bucket, fn))


if __name__ == "__main__":
    unittest.main()
