package store

import (
	"fmt"
	"os"
	"path/filepath"

	"fedwcm/internal/obs"
)

// Instrument registers the store's metric series on reg. Counter series are
// Func metrics reading the same Stats fields the JSON status surface
// reports — one source of truth, no drift. Latency histograms and the
// bytes counter attach to the store itself. A nil reg is a no-op.
func (s *Store) Instrument(reg *obs.Registry) {
	if s == nil || reg == nil {
		return
	}
	stat := func(pick func(Stats) int64) func() float64 {
		return func() float64 { return float64(pick(s.Stats())) }
	}
	reg.CounterFunc("fedwcm_store_mem_hits_total", "Store Gets served from the in-memory LRU.",
		stat(func(st Stats) int64 { return st.MemHits }))
	reg.CounterFunc("fedwcm_store_disk_hits_total", "Store Gets served from disk.",
		stat(func(st Stats) int64 { return st.DiskHits }))
	reg.CounterFunc("fedwcm_store_misses_total", "Store Gets that found nothing.",
		stat(func(st Stats) int64 { return st.Misses }))
	reg.CounterFunc("fedwcm_store_puts_total", "Successful store Puts.",
		stat(func(st Stats) int64 { return st.Puts }))
	reg.CounterFunc("fedwcm_store_lru_evictions_total", "Store LRU entries evicted to stay within capacity.",
		stat(func(st Stats) int64 { return st.Evictions }))
	s.getSeconds = reg.Histogram("fedwcm_store_get_seconds", "Store Get latency in seconds.", nil)
	s.putSeconds = reg.Histogram("fedwcm_store_put_seconds", "Store Put latency in seconds.", nil)
	s.putBytes = reg.Counter("fedwcm_store_put_bytes_total", "Bytes written by store Puts.")
}

// TracePath returns the on-disk location for a fingerprint's span dump, or
// "" if fp is invalid. Traces sit beside the history artifact
// (<fp>.trace.jsonl next to <fp>.json) but are diagnostics, not artifacts:
// Keys ignores them and they carry no determinism guarantees.
func (s *Store) TracePath(fp string) string {
	if !ValidFingerprint(fp) {
		return ""
	}
	return filepath.Join(s.root, fp[:2], fp+".trace.jsonl")
}

// PutTrace persists the spans recorded for fp's run alongside its history,
// atomically (temp + rename), replacing any previous dump. Empty spans are
// a no-op: an uninstrumented run leaves no trace file.
func (s *Store) PutTrace(fp string, spans []obs.Span) error {
	if !ValidFingerprint(fp) {
		return fmt.Errorf("store: invalid fingerprint %q", fp)
	}
	if len(spans) == 0 {
		return nil
	}
	dir := filepath.Dir(s.TracePath(fp))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "."+fp[:8]+"-trace-*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name())
	t := obs.NewTracer(len(spans))
	for _, sp := range spans {
		t.Record(sp)
	}
	err = t.WriteJSONL(tmp, fp)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: write trace %s: %w", fp, err)
	}
	if err := os.Rename(tmp.Name(), s.TracePath(fp)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
