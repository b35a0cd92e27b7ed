package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"fedwcm/internal/wire"
)

// TestWireNegotiatedStatus pins the run-status transport end to end. There
// is one encoding, so whatever a client lists in Accept — nothing, a binary
// type, or a wildcard — it gets the identical JSON body, and wire.Decode
// reads it back to the history the store holds, byte-for-byte.
func TestWireNegotiatedStatus(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	spec := tinySpec()
	code, first := postSpec(t, ts, spec)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: HTTP %d", code)
	}
	fin := waitTerminal(t, ts, first.ID)
	if fin.Status == StatusFailed {
		t.Fatalf("run failed: %s", fin.Error)
	}

	var bodies [][]byte
	for _, accept := range []string{"", "application/octet-stream", "*/*"} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/runs/"+first.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("Accept %q: HTTP %d", accept, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Accept %q: Content-Type = %q", accept, ct)
		}
		if len(bodies) > 0 && !bytes.Equal(body, bodies[0]) {
			t.Fatalf("Accept %q changed the body:\n%s\nvs\n%s", accept, body, bodies[0])
		}
		bodies = append(bodies, body)
	}

	var rs wire.RunStatus
	if _, err := wire.Decode(bytes.NewReader(bodies[0]), false, &rs); err != nil {
		t.Fatalf("decoding status body: %v", err)
	}
	if rs.ID != first.ID || rs.History == nil {
		t.Fatalf("status %+v: want id %s with a history", rs, first.ID)
	}
	stored, ok, err := s.cfg.Store.Get(first.ID)
	if err != nil || !ok {
		t.Fatalf("store: ok=%v err=%v", ok, err)
	}
	want, err := json.Marshal(stored)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(rs.History)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("served history diverges from the stored one:\n%s\nvs\n%s", got, want)
	}
}
