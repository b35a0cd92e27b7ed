package dispatch

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"fedwcm/internal/wire"
)

// TestGzipBombRejected: a result upload that inflates past the body cap is
// refused with a 4xx instead of being buffered, and the coordinator keeps
// serving — the same job still completes afterwards.
func TestGzipBombRejected(t *testing.T) {
	h := newCoordHarness(t, CoordinatorConfig{})
	job := testJob(40)
	hd, err := h.coord.Submit(job, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	wid := h.register(1)
	h.leaseUntil(wid, 5*time.Second)

	// Well-formed JSON — an error upload whose message inflates past
	// wire.MaxBody — so only the cap stands between it and a 64 MiB decode
	// that would fail the job.
	var bomb bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&bomb, gzip.BestCompression)
	zw.Write([]byte(`{"error":"`))
	chunk := []byte(strings.Repeat("a", 1<<16))
	for n := 0; n <= wire.MaxBody; n += len(chunk) {
		zw.Write(chunk)
	}
	zw.Write([]byte(`"}`))
	zw.Close()
	t.Logf("bomb: %d bytes inflating past %d", bomb.Len(), wire.MaxBody)

	url := fmt.Sprintf("%s/v1/workers/%s/jobs/%s/result", h.ts.URL, wid, job.ID)
	req, err := http.NewRequest(http.MethodPost, url, &bomb)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("gzip bomb answered HTTP %d, want 413", resp.StatusCode)
	}

	if code, ack := h.upload(wid, job.ID, cannedHist(40), ""); code != http.StatusOK || ack.Status != "stored" {
		t.Fatalf("upload after the bomb: HTTP %d %+v", code, ack)
	}
	if _, err := waitDone(t, hd); err != nil {
		t.Fatal(err)
	}
}
