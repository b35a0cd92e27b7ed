package wire

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"fedwcm/internal/fl"
	"fedwcm/internal/store"
)

// sampleHistory builds a deterministic history shaped like real engine
// output: the reference workload for upload size. It mirrors what Evaluate
// and the async engine emit: accuracy columns are correct/total quotients
// over a fixed test set (2000 samples, 200 per class) that plateau as the
// run converges, losses and adaptive metrics are full-entropy floats, and
// shot/async blocks appear at the cadence the engine records them.
func sampleHistory(rounds, classes int) *fl.History {
	r := rand.New(rand.NewSource(97))
	perClassN := 200
	totals := make([]int, classes)
	buckets := make([]int, classes)
	for c := range totals {
		totals[c] = perClassN
		buckets[c] = c * 3 / classes
	}
	correct := make([]int, classes)
	h := &fl.History{Method: "fedwcm"}
	for i := 0; i < rounds; i++ {
		sumCorrect := 0
		perClass := make([]float64, classes)
		for c := range correct {
			// Per-class accuracy random-walks upward and plateaus: most
			// rounds a class's count moves by a few samples or not at all.
			if step := r.Intn(5) - 1; step > 0 || correct[c] > 0 {
				correct[c] += step
			}
			correct[c] = min(max(correct[c], 0), perClassN)
			perClass[c] = float64(correct[c]) / float64(perClassN)
			sumCorrect += correct[c]
		}
		s := fl.RoundStat{
			Round:     i + 1,
			TestAcc:   float64(sumCorrect) / float64(classes*perClassN),
			PerClass:  perClass,
			TrainLoss: 2.3*math.Exp(-float64(i)/40) + 0.01*r.Float64(),
			Time:      float64(i + 1),
		}
		if i%2 == 0 {
			s.Metrics = map[string]float64{
				"alpha":       0.1 + 0.02*r.Float64(),
				"buffer_wait": float64(r.Intn(20)),
			}
		}
		s.Shot = fl.ShotAccuracy(perClass, totals, buckets)
		if i%2 == 1 {
			s.Async = &fl.AsyncRoundStat{
				Buffer:    8,
				Waves:     i + 2,
				MeanStale: float64(r.Intn(24)) / 8,
				MaxStale:  r.Intn(5),
				StaleHist: []int{5, 2, 1},
			}
		}
		h.Stats = append(h.Stats, s)
	}
	return h
}

// edgeFloat draws finite floats heavy on encoding edge cases: ±0,
// subnormals, full 52-bit mantissas across the whole exponent range, and
// ordinary [0,1) accuracies.
func edgeFloat(r *rand.Rand) float64 {
	switch r.Intn(5) {
	case 0:
		return math.Copysign(0, float64(r.Intn(2)*2-1))
	case 1:
		return math.Float64frombits(r.Uint64() & (1<<52 - 1))
	case 2:
		return math.Float64frombits(r.Uint64()&^(0x7FF<<52) | uint64(1+r.Intn(0x7FE))<<52)
	default:
		return r.Float64()
	}
}

// edgeStats draws n rows of edge-case floats with empty, absent and
// populated PerClass/Metrics/StaleHist containers.
func edgeStats(r *rand.Rand, n int) []fl.RoundStat {
	var stats []fl.RoundStat
	for i := 0; i < n; i++ {
		s := fl.RoundStat{Round: i + 1, TestAcc: edgeFloat(r), TrainLoss: edgeFloat(r), Time: edgeFloat(r)}
		switch r.Intn(3) {
		case 0:
			s.PerClass = []float64{}
		case 1:
			s.PerClass = make([]float64, 1+r.Intn(10))
			for j := range s.PerClass {
				s.PerClass[j] = edgeFloat(r)
			}
		}
		switch r.Intn(3) {
		case 0:
			s.Metrics = map[string]float64{}
		case 1:
			s.Metrics = map[string]float64{"alpha": edgeFloat(r), "κ": edgeFloat(r)}
		}
		if r.Intn(2) == 0 {
			s.Shot = &fl.ShotAcc{Head: edgeFloat(r), Medium: edgeFloat(r), Tail: edgeFloat(r)}
		}
		if r.Intn(2) == 0 {
			s.Async = &fl.AsyncRoundStat{Buffer: r.Intn(32), Partial: r.Intn(2) == 0, Waves: r.Intn(1000),
				MeanStale: edgeFloat(r), MaxStale: r.Intn(64), StaleHist: []int{r.Intn(9), r.Intn(9)}}
		}
		stats = append(stats, s)
	}
	return stats
}

func edgeHistory(r *rand.Rand, rounds int) *fl.History {
	return &fl.History{Method: "fedwcm", Stats: edgeStats(r, rounds)}
}

func bitsEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// statsEqual compares bit-for-bit, except where omitempty drops a value
// exactly as the stored artifact does: an empty container comes back
// absent, and a -0 Time comes back as the absent +0.
func statsEqual(t *testing.T, got, want []fl.RoundStat) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("len %d, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := &got[i], &want[i]
		wantTime := w.Time
		if wantTime == 0 {
			wantTime = 0 // omitempty: -0 is not sent
		}
		if g.Round != w.Round || !bitsEq(g.TestAcc, w.TestAcc) || !bitsEq(g.TrainLoss, w.TrainLoss) || !bitsEq(g.Time, wantTime) {
			t.Fatalf("row %d scalar mismatch:\n got  %+v\n want %+v", i, g, w)
		}
		if len(g.PerClass) != len(w.PerClass) {
			t.Fatalf("row %d PerClass len %d, want %d", i, len(g.PerClass), len(w.PerClass))
		}
		for j := range w.PerClass {
			if !bitsEq(g.PerClass[j], w.PerClass[j]) {
				t.Fatalf("row %d PerClass[%d] = %x, want %x", i, j, math.Float64bits(g.PerClass[j]), math.Float64bits(w.PerClass[j]))
			}
		}
		if len(g.Metrics) != len(w.Metrics) {
			t.Fatalf("row %d Metrics len %d, want %d", i, len(g.Metrics), len(w.Metrics))
		}
		for k, wv := range w.Metrics {
			if gv, ok := g.Metrics[k]; !ok || !bitsEq(gv, wv) {
				t.Fatalf("row %d Metrics[%q] = %v (%v), want %v", i, k, gv, ok, wv)
			}
		}
		if (g.Shot == nil) != (w.Shot == nil) {
			t.Fatalf("row %d Shot presence mismatch", i)
		}
		if w.Shot != nil && (!bitsEq(g.Shot.Head, w.Shot.Head) || !bitsEq(g.Shot.Medium, w.Shot.Medium) || !bitsEq(g.Shot.Tail, w.Shot.Tail)) {
			t.Fatalf("row %d Shot mismatch: %+v vs %+v", i, g.Shot, w.Shot)
		}
		if (g.Async == nil) != (w.Async == nil) {
			t.Fatalf("row %d Async presence mismatch", i)
		}
		if w.Async != nil {
			ga, wa := g.Async, w.Async
			if ga.Buffer != wa.Buffer || ga.Partial != wa.Partial || ga.Waves != wa.Waves ||
				!bitsEq(ga.MeanStale, wa.MeanStale) || ga.MaxStale != wa.MaxStale ||
				len(ga.StaleHist) != len(wa.StaleHist) {
				t.Fatalf("row %d Async mismatch: %+v vs %+v", i, ga, wa)
			}
			for j := range wa.StaleHist {
				if ga.StaleHist[j] != wa.StaleHist[j] {
					t.Fatalf("row %d StaleHist[%d] = %d, want %d", i, j, ga.StaleHist[j], wa.StaleHist[j])
				}
			}
		}
	}
}

// decodeGzip decodes an Encoder body the way the coordinator does.
func decodeGzip(t *testing.T, body []byte, v any) {
	t.Helper()
	if _, err := Decode(bytes.NewReader(body), true, v); err != nil {
		t.Fatalf("decode: %v", err)
	}
}

// TestWireSmallerThanJSON is the transport-size gate: on the reference
// 100-round history a gzipped result upload must be at least 5× smaller
// than the plain JSON body.
func TestWireSmallerThanJSON(t *testing.T) {
	res := Result{History: sampleHistory(100, 10)}
	plain, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	body, err := NewEncoder().Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("json=%d gzip=%d ratio=%.2f", len(plain), len(body), float64(len(plain))/float64(len(body)))
	if len(body)*5 > len(plain) {
		t.Fatalf("upload is %d bytes, not ≥5× smaller than the %d-byte JSON", len(body), len(plain))
	}
}

// TestResultRoundtripExact: Encode → Decode of a result upload is
// bit-for-bit lossless on finite edge cases (±0, subnormals, full
// mantissas), and error-only and empty uploads survive as they are.
func TestResultRoundtripExact(t *testing.T) {
	enc := NewEncoder()
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var want Result
		if trial%10 != 0 {
			want.History = &fl.History{Method: []string{"fedwcm", "fedavg", ""}[r.Intn(3)], Stats: edgeStats(r, r.Intn(30))}
		}
		want.Error = []string{"", "client 3 diverged", "κ"}[r.Intn(3)]
		body, err := enc.Encode(want)
		if err != nil {
			t.Fatal(err)
		}
		var got Result
		decodeGzip(t, body, &got)
		if got.Error != want.Error {
			t.Fatalf("trial %d: error %q, want %q", trial, got.Error, want.Error)
		}
		if (got.History == nil) != (want.History == nil) {
			t.Fatalf("trial %d: history presence mismatch", trial)
		}
		if want.History != nil {
			if got.History.Method != want.History.Method {
				t.Fatalf("trial %d: method %q, want %q", trial, got.History.Method, want.History.Method)
			}
			statsEqual(t, got.History.Stats, want.History.Stats)
		}
	}
}

// TestResultJSONBytesIdentical is the store-boundary guarantee: a history
// that travels Encode → Decode → Store.Put leaves exactly the artifact
// bytes that storing the original does, so remote and local runs file
// identical results.
func TestResultJSONBytesIdentical(t *testing.T) {
	enc := NewEncoder()
	r := rand.New(rand.NewSource(11))
	fp := strings.Repeat("ab", 32)
	for trial := 0; trial < 30; trial++ {
		want := edgeHistory(r, 1+r.Intn(20))
		body, err := enc.Encode(Result{History: want})
		if err != nil {
			t.Fatal(err)
		}
		var got Result
		decodeGzip(t, body, &got)

		var artifacts [2][]byte
		for i, h := range []*fl.History{want, got.History} {
			st, err := store.Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Put(fp, h); err != nil {
				t.Fatal(err)
			}
			if artifacts[i], err = os.ReadFile(st.Path(fp)); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(artifacts[0], artifacts[1]) {
			t.Fatalf("trial %d: artifact differs after upload:\n got  %s\n want %s", trial, artifacts[1], artifacts[0])
		}
	}
}

// TestStatsRoundtripExact: heartbeat progress crosses the wire bit-for-bit.
func TestStatsRoundtripExact(t *testing.T) {
	enc := NewEncoder()
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		want := Stats{Rounds: edgeStats(r, r.Intn(20))}
		body, err := enc.Encode(want)
		if err != nil {
			t.Fatal(err)
		}
		var got Stats
		decodeGzip(t, body, &got)
		statsEqual(t, got.Rounds, want.Rounds)
	}
}

// TestRunStatusRoundtrip: a plain-JSON run-status body, as fedserve writes
// it, decodes to the same state.
func TestRunStatusRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		want := RunStatus{
			ID:       "a1b2c3",
			Status:   []string{"queued", "running", "done", "failed"}[r.Intn(4)],
			Error:    []string{"", "boom"}[r.Intn(2)],
			Progress: edgeStats(r, r.Intn(10)),
		}
		if r.Intn(2) == 0 {
			want.History = edgeHistory(r, r.Intn(10))
		}
		body, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		var got RunStatus
		if _, err := Decode(bytes.NewReader(append(body, '\n')), false, &got); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.ID != want.ID || got.Status != want.Status || got.Error != want.Error {
			t.Fatalf("trial %d: header mismatch: %+v vs %+v", trial, got, want)
		}
		statsEqual(t, got.Progress, want.Progress)
		if (got.History == nil) != (want.History == nil) {
			t.Fatalf("trial %d: history presence mismatch", trial)
		}
		if want.History != nil {
			statsEqual(t, got.History.Stats, want.History.Stats)
		}
	}
}

// TestDecodeRejectsCorrupt: every truncation of a valid body, a flipped
// checksum, bad gzip magic and trailing data must error — never panic,
// never silently succeed with wrong data. An empty body is io.EOF.
func TestDecodeRejectsCorrupt(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	res := Result{History: edgeHistory(r, 8), Error: "err"}
	gz, err := NewEncoder().Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		body    []byte
		gzipped bool
	}{{"gzip", gz, true}, {"plain", plain, false}} {
		var v Result
		if _, err := Decode(bytes.NewReader(nil), c.gzipped, &v); !errors.Is(err, io.EOF) {
			t.Fatalf("%s: empty body: err = %v, want io.EOF", c.name, err)
		}
		for n := 1; n < len(c.body); n++ {
			if _, err := Decode(bytes.NewReader(c.body[:n]), c.gzipped, &v); err == nil {
				t.Fatalf("%s: truncation to %d of %d bytes decoded without error", c.name, n, len(c.body))
			}
		}
		if _, err := Decode(bytes.NewReader(append(c.body[:len(c.body):len(c.body)], "{}"...)), c.gzipped, &v); err == nil {
			t.Fatalf("%s: trailing data accepted", c.name)
		}
	}

	badCRC := append([]byte{}, gz...)
	badCRC[len(badCRC)-8] ^= 0x01 // first byte of the CRC-32 trailer
	var v Result
	if _, err := Decode(bytes.NewReader(badCRC), true, &v); !errors.Is(err, gzip.ErrChecksum) {
		t.Fatalf("flipped checksum: err = %v, want gzip.ErrChecksum", err)
	}
	badMagic := append([]byte{}, gz...)
	badMagic[0] = 'X'
	if _, err := Decode(bytes.NewReader(badMagic), true, &v); !errors.Is(err, gzip.ErrHeader) {
		t.Fatalf("bad magic: err = %v, want gzip.ErrHeader", err)
	}
	if _, err := Decode(bytes.NewReader(gz), false, &v); err == nil {
		t.Fatal("gzip body accepted as plain JSON")
	}
}
