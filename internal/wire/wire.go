// Package wire is the transport encoding of fedserve's HTTP protocols.
// Every body is JSON. Worker uploads — heartbeats and results — are also
// gzipped and sent with Content-Encoding: gzip; everything else goes plain.
//
// JSON carries every fl.RoundStat field losslessly (encoding/json writes
// the shortest float that parses back to the same bits), so a history that
// crosses the wire is stored byte-for-byte as it would be locally. It has
// no NaN or ±Inf: Encode fails on them instead of sending a body the other
// side would reject.
package wire

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"fedwcm/internal/fl"
)

// Result is a worker's result upload: the finished history, or the error
// that ended the job.
type Result struct {
	History *fl.History `json:"history,omitempty"`
	Error   string      `json:"error,omitempty"`
}

// Stats is a worker's heartbeat body. Rounds carries the stats recorded
// since the previous heartbeat; the coordinator relays them to the job's
// progress subscribers.
type Stats struct {
	Rounds []fl.RoundStat `json:"rounds,omitempty"`
}

// RunStatus is the run-status body of GET/POST /v1/runs, as fedserve
// writes it and dispatch.Client reads it.
type RunStatus struct {
	ID       string         `json:"id"`
	Status   string         `json:"status"`
	Progress []fl.RoundStat `json:"progress,omitempty"`
	History  *fl.History    `json:"history,omitempty"`
	Error    string         `json:"error,omitempty"`
}

// MaxBody caps a body, before and after decompression. gzip expands input
// up to ~1000×, so without a cap a few kilobytes could make a decoder
// allocate gigabytes; 64 MiB is far above any real body (the 100-round
// reference history is ~28 KB of JSON).
const MaxBody = 64 << 20

// ErrTooLarge reports a body past MaxBody.
var ErrTooLarge = fmt.Errorf("wire: body exceeds %d bytes", MaxBody)

// Encoder marshals and gzips upload bodies. It holds one gzip writer for
// its lifetime: a writer's deflate state is ~0.8 MB, allocated on first
// use, so building one per upload would dominate a worker's allocations.
// Safe for concurrent use.
type Encoder struct {
	mu sync.Mutex
	gz *gzip.Writer
}

// NewEncoder returns an Encoder at gzip.BestCompression with its deflate
// state already allocated.
func NewEncoder() *Encoder {
	// A constant valid level cannot fail. Close allocates the deflate state
	// now instead of inside the first upload.
	gz, _ := gzip.NewWriterLevel(io.Discard, gzip.BestCompression)
	gz.Close()
	return &Encoder{gz: gz}
}

// Encode marshals v to JSON and gzips it. The error is json.Marshal's:
// JSON has no NaN or ±Inf.
func (e *Encoder) Encode(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	e.mu.Lock()
	defer e.mu.Unlock()
	e.gz.Reset(&buf)
	e.gz.Write(b) // writes into a bytes.Buffer cannot fail
	e.gz.Close()
	return buf.Bytes(), nil
}

// gzipReaders recycles gunzip state (the inflate window) across decodes.
var gzipReaders sync.Pool

// Decode reads a body from r, gunzips it when gzipped, unmarshals the JSON
// into v and returns the body's size as read from r. An empty body yields
// io.EOF; one past MaxBody, compressed or not, yields ErrTooLarge. A gzip
// body is read to its end, so a bad checksum fails the decode.
func Decode(r io.Reader, gzipped bool, v any) (int, error) {
	raw, err := readCapped(r)
	if err != nil || len(raw) == 0 {
		if err == nil {
			err = io.EOF
		}
		return len(raw), err
	}
	b := raw
	if gzipped {
		zr, _ := gzipReaders.Get().(*gzip.Reader)
		if zr == nil {
			zr = new(gzip.Reader)
		}
		defer gzipReaders.Put(zr)
		if err := zr.Reset(bytes.NewReader(raw)); err != nil {
			return len(raw), fmt.Errorf("wire: gunzip: %w", err)
		}
		if b, err = readCapped(zr); err != nil {
			if !errors.Is(err, ErrTooLarge) {
				err = fmt.Errorf("wire: gunzip: %w", err)
			}
			return len(raw), err
		}
	}
	return len(raw), json.Unmarshal(b, v)
}

// readCapped reads r to its end, failing with ErrTooLarge past MaxBody.
func readCapped(r io.Reader) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(r, MaxBody+1))
	if err == nil && len(b) > MaxBody {
		err = ErrTooLarge
	}
	return b, err
}
