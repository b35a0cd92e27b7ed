package wire

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"fedwcm/internal/fl"
)

// The fuzz targets feed arbitrary bytes into Decode — gunzipping them when
// they start with the gzip magic, as a body sent with Content-Encoding:
// gzip would be, and reading them as plain JSON otherwise. Invariants:
//
//  1. No panic, no unbounded allocation — corrupt input must fail with an
//     error (every read is capped at MaxBody).
//  2. Re-encode closure: whatever decodes successfully must re-encode and
//     re-decode to the same JSON, so a relayed message never drifts.
//
// The seed corpus under testdata/fuzz/* is checked in and replays as a
// regression on plain `go test` and in CI's fuzz step.

func isGzip(p []byte) bool { return len(p) >= 2 && p[0] == 0x1f && p[1] == 0x8b }

// corruptions is how many single-byte flips of a valid body, per encoding,
// the seed corpus carries: enough to land in the gzip header, the deflate
// stream and the CRC/size trailer, and in every JSON token kind.
const corruptions = 44

func seedCorpus(f *testing.F) {
	r := rand.New(rand.NewSource(41))
	enc := NewEncoder()
	gz := func(v any) []byte {
		b, err := enc.Encode(v)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	plain := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	h := &fl.History{Method: "fedwcm", Stats: edgeStats(r, 6)}
	f.Add([]byte{})
	f.Add([]byte("{}"))
	f.Add([]byte("null"))
	f.Add([]byte{0x1f, 0x8b})
	f.Add(gz(Result{History: h, Error: "client 3 diverged"}))
	f.Add(gz(Result{}))
	f.Add(gz(Stats{Rounds: edgeStats(r, 4)}))
	f.Add(plain(RunStatus{ID: "ab12", Status: "running", Progress: edgeStats(r, 3)}))
	f.Add(plain(RunStatus{ID: "cd34", Status: "done", History: h}))
	// Deliberate corruptions of a valid message, in both encodings.
	for _, p := range [][]byte{gz(Result{History: h}), plain(Result{History: h})} {
		for k := 0; k < corruptions; k++ {
			q := append([]byte{}, p...)
			q[k*(len(q)-1)/(corruptions-1)] ^= 0x81
			f.Add(q)
		}
	}
}

// decodeFuzz decodes p into v, gunzipping gzip-magic input.
func decodeFuzz(p []byte, v any) error {
	_, err := Decode(bytes.NewReader(p), isGzip(p), v)
	return err
}

// reencodeStable re-encodes v1 (gzipped when gzipped), decodes that into
// v2, and checks both marshal to the same JSON.
func reencodeStable(t *testing.T, enc *Encoder, gzipped bool, v1, v2 any) {
	t.Helper()
	var p []byte
	var err error
	if gzipped {
		p, err = enc.Encode(v1)
	} else {
		p, err = json.Marshal(v1)
	}
	if err != nil {
		t.Fatalf("decoded value does not re-encode: %v", err)
	}
	if _, err := Decode(bytes.NewReader(p), gzipped, v2); err != nil {
		t.Fatalf("re-encode of decoded value does not decode: %v", err)
	}
	a, _ := json.Marshal(v1)
	b, _ := json.Marshal(v2)
	if !bytes.Equal(a, b) {
		t.Fatalf("re-encode drifted:\n %s\n %s", a, b)
	}
}

func FuzzDecodeResult(f *testing.F) {
	seedCorpus(f)
	enc := NewEncoder()
	f.Fuzz(func(t *testing.T, p []byte) {
		var res Result
		if decodeFuzz(p, &res) != nil {
			return
		}
		var res2 Result
		reencodeStable(t, enc, true, &res, &res2)
		if res2.Error != res.Error || (res2.History == nil) != (res.History == nil) {
			t.Fatal("re-encode drifted")
		}
		if res.History != nil {
			if res2.History.Method != res.History.Method {
				t.Fatal("method drifted")
			}
			statsEqual(t, res2.History.Stats, res.History.Stats)
		}
	})
}

func FuzzDecodeStats(f *testing.F) {
	seedCorpus(f)
	enc := NewEncoder()
	f.Fuzz(func(t *testing.T, p []byte) {
		var st Stats
		if decodeFuzz(p, &st) != nil {
			return
		}
		var st2 Stats
		reencodeStable(t, enc, true, &st, &st2)
		statsEqual(t, st2.Rounds, st.Rounds)
	})
}

func FuzzDecodeRunStatus(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, p []byte) {
		var rs RunStatus
		if decodeFuzz(p, &rs) != nil {
			return
		}
		var rs2 RunStatus
		reencodeStable(t, nil, false, &rs, &rs2)
		if rs2.ID != rs.ID || rs2.Status != rs.Status || rs2.Error != rs.Error {
			t.Fatal("header drifted")
		}
		statsEqual(t, rs2.Progress, rs.Progress)
		if (rs2.History == nil) != (rs.History == nil) {
			t.Fatal("history presence drifted")
		}
		if rs.History != nil {
			statsEqual(t, rs2.History.Stats, rs.History.Stats)
		}
	})
}
