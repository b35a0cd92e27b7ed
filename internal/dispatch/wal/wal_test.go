package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openT(t *testing.T, path string) (*Log, *Recovery) {
	t.Helper()
	l, rec, err := Open(path)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return l, rec
}

func walPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "coord.wal")
}

// jobIDs lists the Job field of each record, in order.
func jobIDs(recs []Record) []string {
	var ids []string
	for _, r := range recs {
		ids = append(ids, r.Job)
	}
	return ids
}

// sameRecords reports whether got replays want exactly: same order, same
// fields.
func sameRecords(got, want []Record) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Type != w.Type || g.Job != w.Job || g.Worker != w.Worker || g.Attempts != w.Attempts ||
			g.Status != w.Status || !bytes.Equal(g.Spec, w.Spec) {
			return false
		}
	}
	return true
}

func TestAppendReplayRoundtrip(t *testing.T) {
	path := walPath(t)
	l, rec := openT(t, path)
	if len(rec.Records) != 0 {
		t.Fatalf("fresh log not empty: %+v", rec)
	}
	recs := []Record{
		{Type: TypeSubmit, Job: "job-a", Spec: []byte(`{"cell":1}`)},
		{Type: TypeSubmit, Job: "job-b", Spec: []byte(`{"cell":2}`)},
		{Type: TypeLease, Job: "job-a", Worker: "w-1", Attempts: 1},
		{Type: TypeSubmit, Job: "job-c", Spec: []byte(`{"cell":3}`)},
		{Type: TypeComplete, Job: "job-b", Status: "stored"},
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rec2 := openT(t, path)
	if rec2.Torn {
		t.Fatal("clean log reported torn")
	}
	if !sameRecords(rec2.Records, recs) {
		t.Fatalf("replayed %+v, want %+v", rec2.Records, recs)
	}
	// Reopening is idempotent: the same records, nothing lost or doubled.
	l2.Close()
	_, rec3 := openT(t, path)
	if !sameRecords(rec3.Records, recs) {
		t.Fatalf("second reopen replayed %+v, want %+v", rec3.Records, recs)
	}
}

// The log replays what was appended, verbatim: it does not fold records
// into job state, so a requeue after a handover, or a resubmission of a
// completed id, comes back as written (the queue in internal/dispatch
// gives them meaning).
func TestRequeueAndResubmitSemantics(t *testing.T) {
	path := walPath(t)
	l, _ := openT(t, path)
	recs := []Record{
		{Type: TypeSubmit, Job: "j", Spec: []byte(`{}`)},
		{Type: TypeLease, Job: "j", Worker: "w-1", Attempts: 1},
		{Type: TypeRequeue, Job: "j", Attempts: 1}, // expiry keeps the attempt
		{Type: TypeLease, Job: "j", Worker: "w-2", Attempts: 2},
		{Type: TypeRequeue, Job: "j", Attempts: 1}, // handover refunds it
		{Type: TypeSubmit, Job: "k", Spec: []byte(`{"v":1}`)},
		{Type: TypeComplete, Job: "k", Status: "failed"},
		{Type: TypeSubmit, Job: "k", Spec: []byte(`{"v":1}`)},
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	l.Close()

	_, rec := openT(t, path)
	if !sameRecords(rec.Records, recs) {
		t.Fatalf("replayed %+v, want %+v", rec.Records, recs)
	}
}

// appendGarbage simulates a crash mid-append by appending raw bytes.
func appendGarbage(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

func TestTornTailIsTruncated(t *testing.T) {
	full := frameFor(Record{Type: TypeSubmit, Job: "job-torn", Spec: []byte(`{}`)})
	cases := []struct {
		name string
		tail []byte
	}{
		{"partial header", full[:3]},
		{"header only", full[:headerLen]},
		{"half payload", full[:headerLen+(len(full)-headerLen)/2]},
		{"flipped final payload", flip(full, len(full)-1)},
		{"flipped final crc", flip(full, 5)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := walPath(t)
			l, _ := openT(t, path)
			if err := l.Append(Record{Type: TypeSubmit, Job: "job-live", Spec: []byte(`{"x":1}`)}); err != nil {
				t.Fatal(err)
			}
			l.Close()
			appendGarbage(t, path, tc.tail)

			l2, rec := openT(t, path)
			if !rec.Torn {
				t.Fatal("tear not reported")
			}
			if rec.Truncated != int64(len(tc.tail)) {
				t.Fatalf("Truncated = %d, want %d", rec.Truncated, len(tc.tail))
			}
			if fmt.Sprint(jobIDs(rec.Records)) != "[job-live]" {
				t.Fatalf("replayed %+v, want the pre-tear record only", rec.Records)
			}
			// The tail is physically gone: appends after recovery land on a
			// clean boundary and a third open sees no tear.
			if err := l2.Append(Record{Type: TypeSubmit, Job: "job-after", Spec: []byte(`{}`)}); err != nil {
				t.Fatal(err)
			}
			l2.Close()
			_, rec3 := openT(t, path)
			if rec3.Torn || fmt.Sprint(jobIDs(rec3.Records)) != "[job-live job-after]" {
				t.Fatalf("post-recovery log unclean: %+v", rec3)
			}
		})
	}
}

func flip(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x40
	return out
}

func frameFor(r Record) []byte {
	return appendFrame(nil, &r)
}

// TestCorruptionCorpusFailsClosed replays a corpus of damaged logs: every
// variant must either refuse to open (ErrCorrupt) or recover exactly a
// prefix of the records that were written — a corrupt record is never
// applied, and records after it are never resurrected past an ErrCorrupt.
func TestCorruptionCorpusFailsClosed(t *testing.T) {
	base := walPath(t)
	l, _ := openT(t, base)
	ids := []string{"job-0", "job-1", "job-2", "job-3"}
	for _, id := range ids {
		if err := l.Append(Record{Type: TypeSubmit, Job: id, Spec: []byte(`{"n":1}`)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	clean, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}

	prefixSets := make(map[string]bool)
	for i := 0; i <= len(ids); i++ {
		prefixSets[fmt.Sprint(ids[:i])] = true
	}
	for i := 0; i < len(clean); i++ {
		for _, variant := range [][]byte{flip(clean, i), clean[:i]} {
			path := filepath.Join(t.TempDir(), "c.wal")
			if err := os.WriteFile(path, variant, 0o644); err != nil {
				t.Fatal(err)
			}
			l2, rec, err := Open(path)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("byte %d: unexpected error class: %v", i, err)
				}
				continue // failed closed
			}
			got := jobIDs(rec.Records)
			if !prefixSets[fmt.Sprint(got)] {
				t.Fatalf("byte %d: recovered %v — not a prefix of %v", i, got, ids)
			}
			l2.Close()
		}
	}
}

func TestMidFileBitFlipRefusesOpen(t *testing.T) {
	path := walPath(t)
	l, _ := openT(t, path)
	for i := 0; i < 3; i++ {
		if err := l.Append(Record{Type: TypeSubmit, Job: fmt.Sprintf("job-%d", i), Spec: []byte(`{"padding":"xxxxxxxxxxxxxxxx"}`)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the FIRST record's payload: damage before the
	// tail means acknowledged history was lost, and Open must say so.
	data[len(fileMagic)+headerLen+2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on mid-file bit flip: err = %v, want ErrCorrupt", err)
	}
}

func TestCompactShrinksLog(t *testing.T) {
	path := walPath(t)
	l, _ := openT(t, path)
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("job-%02d", i)
		if err := l.Append(Record{Type: TypeSubmit, Job: id, Spec: []byte(`{}`)}); err != nil {
			t.Fatal(err)
		}
		if i < 17 {
			if err := l.Append(Record{Type: TypeComplete, Job: id, Status: "stored"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := l.Size()
	live := []Record{
		{Type: TypeSubmit, Job: "job-17", Spec: []byte(`{}`)},
		{Type: TypeSubmit, Job: "job-18", Spec: []byte(`{}`), Attempts: 1},
		{Type: TypeLease, Job: "job-18", Worker: "w-9", Attempts: 1},
		{Type: TypeSubmit, Job: "job-19", Spec: []byte(`{}`)},
	}
	if err := l.Compact(live); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if after := l.Size(); after >= before {
		t.Fatalf("compaction grew the log: %d -> %d framed bytes", before, after)
	}
	// The compacted log still accepts appends on the swapped descriptor.
	if err := l.Append(Record{Type: TypeComplete, Job: "job-17", Status: "stored"}); err != nil {
		t.Fatalf("Append after Compact: %v", err)
	}
	l.Close()

	_, rec := openT(t, path)
	want := append(live, Record{Type: TypeComplete, Job: "job-17", Status: "stored"})
	if !sameRecords(rec.Records, want) {
		t.Fatalf("replayed %+v, want the live set then the post-compaction append %+v", rec.Records, want)
	}
}

func TestConcurrentAppendGroupCommit(t *testing.T) {
	path := walPath(t)
	l, _ := openT(t, path)
	const goroutines, per = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r := Record{Type: TypeSubmit, Job: fmt.Sprintf("job-%d-%d", g, i), Spec: []byte(`{}`)}
				if err := l.Append(r); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	l.Close()
	_, rec := openT(t, path)
	if len(rec.Records) != goroutines*per {
		t.Fatalf("replayed %d records, want %d", len(rec.Records), goroutines*per)
	}
	// Each appender's records land in its call order.
	next := make(map[int]int)
	for _, r := range rec.Records {
		var g, i int
		if _, err := fmt.Sscanf(r.Job, "job-%d-%d", &g, &i); err != nil {
			t.Fatalf("unexpected record %+v", r)
		}
		if i != next[g] {
			t.Fatalf("appender %d: record %d replayed where %d was due", g, i, next[g])
		}
		next[g]++
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l, _ := openT(t, walPath(t))
	l.Close()
	if err := l.Append(Record{Type: TypeSubmit, Job: "j"}); err == nil {
		t.Fatal("Append after Close succeeded")
	}
}

func FuzzReplay(f *testing.F) {
	var seed []byte
	seed = append(seed, fileMagic...)
	for _, r := range []Record{
		{Type: TypeSubmit, Job: "job-a", Spec: []byte(`{"cell":1}`)},
		{Type: TypeLease, Job: "job-a", Worker: "w-1", Attempts: 1},
		{Type: TypeSubmit, Job: "job-b", Spec: []byte(`{"cell":2}`)},
		{Type: TypeComplete, Job: "job-a", Status: "stored"},
	} {
		seed = appendFrame(seed, &r)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Add(flipFuzz(seed, 10))
	f.Add(flipFuzz(seed, len(seed)-2))
	f.Add([]byte(fileMagic))
	f.Add([]byte("FWAL1\nnot frames at all"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "f.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		l, rec, err := Open(path)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("non-ErrCorrupt failure: %v", err)
			}
			return
		}
		for _, r := range rec.Records {
			if r.Type < TypeSubmit || r.Type > TypeComplete {
				t.Fatalf("replayed a record of unknown type %d", r.Type)
			}
		}
		l.Close()
		// Recovery is idempotent: reopening the (truncated) file replays the
		// identical state and reports no tear.
		l2, rec2, err := Open(path)
		if err != nil {
			t.Fatalf("second Open failed after first succeeded: %v", err)
		}
		defer l2.Close()
		if rec2.Torn {
			t.Fatal("second Open still torn — truncation not persisted")
		}
		if !sameRecords(rec2.Records, rec.Records) {
			t.Fatalf("recovery not idempotent: %+v vs %+v", rec, rec2)
		}
	})
}

func flipFuzz(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x20
	return out
}

func TestAppendAsyncDurableAfterClose(t *testing.T) {
	path := walPath(t)
	l, _ := openT(t, path)
	const n = 200
	if err := l.Append(Record{Type: TypeSubmit, Job: "job-sync", Spec: []byte(`{}`)}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	for i := 0; i < n; i++ {
		r := Record{Type: TypeLease, Job: "job-sync", Worker: fmt.Sprintf("w-%d", i), Attempts: i + 1}
		if err := l.AppendAsync(r); err != nil {
			t.Fatalf("AppendAsync: %v", err)
		}
	}
	// Close must flush whatever the background leader has not yet synced:
	// a clean shutdown loses nothing.
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, rec := openT(t, path)
	if len(rec.Records) != n+1 {
		t.Fatalf("replayed %d records, want %d", len(rec.Records), n+1)
	}
	for i, r := range rec.Records[1:] {
		if r.Type != TypeLease || r.Worker != fmt.Sprintf("w-%d", i) || r.Attempts != i+1 {
			t.Fatalf("async record %d replayed as %+v", i, r)
		}
	}
}

func TestAppendAsyncOrderedWithSync(t *testing.T) {
	// A sync Append issued after async appends must flush them too (shared
	// buffer, shared commit): once Append returns, every earlier AppendAsync
	// is durable and replay sees call order.
	path := walPath(t)
	l, _ := openT(t, path)
	if err := l.Append(Record{Type: TypeSubmit, Job: "job-x", Spec: []byte(`{}`)}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendAsync(Record{Type: TypeLease, Job: "job-x", Worker: "w-1", Attempts: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendAsync(Record{Type: TypeRequeue, Job: "job-x", Attempts: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Type: TypeSubmit, Job: "job-y", Spec: []byte(`{}`)}); err != nil {
		t.Fatal(err)
	}
	// Reopen without Close: everything acknowledged by the last sync Append
	// must already be on disk (Close on the original handle would flush, so
	// bypass it to prove the sync barrier alone suffices).
	l2, rec := openT(t, path)
	defer l2.Close()
	want := []Record{
		{Type: TypeSubmit, Job: "job-x", Spec: []byte(`{}`)},
		{Type: TypeLease, Job: "job-x", Worker: "w-1", Attempts: 1},
		{Type: TypeRequeue, Job: "job-x", Attempts: 1},
		{Type: TypeSubmit, Job: "job-y", Spec: []byte(`{}`)},
	}
	if !sameRecords(rec.Records, want) {
		t.Fatalf("replayed %+v, want call order %+v", rec.Records, want)
	}
	l.Close()
}

func TestAppendAsyncConcurrentMix(t *testing.T) {
	path := walPath(t)
	l, _ := openT(t, path)
	const goroutines, per = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := fmt.Sprintf("job-%d-%d", g, i)
				if err := l.Append(Record{Type: TypeSubmit, Job: id, Spec: []byte(`{}`)}); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
				if err := l.AppendAsync(Record{Type: TypeLease, Job: id, Worker: "w", Attempts: 1}); err != nil {
					t.Errorf("AppendAsync: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, rec := openT(t, path)
	if len(rec.Records) != 2*goroutines*per {
		t.Fatalf("replayed %d records, want %d", len(rec.Records), 2*goroutines*per)
	}
	// Every async lease is there, after the sync submit of the same job.
	submitted := make(map[string]bool)
	leased := 0
	for _, r := range rec.Records {
		switch r.Type {
		case TypeSubmit:
			submitted[r.Job] = true
		case TypeLease:
			if !submitted[r.Job] {
				t.Fatalf("lease for %s replayed before its submit", r.Job)
			}
			leased++
		}
	}
	if leased != goroutines*per {
		t.Fatalf("replayed %d async leases, want %d", leased, goroutines*per)
	}
}

func TestAppendAsyncCompactCarriesBuffered(t *testing.T) {
	// A record buffered by AppendAsync and then superseded by a compaction
	// is carried by the snapshot: its Sync succeeds, and the compacted log
	// replays exactly the snapshot — the buffered frame neither vanishes
	// unacknowledged nor reappears after the state it led to.
	path := walPath(t)
	l, _ := openT(t, path)
	if err := l.Append(Record{Type: TypeSubmit, Job: "job-a", Spec: []byte(`{}`)}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendAsync(Record{Type: TypeLease, Job: "job-a", Worker: "w-1", Attempts: 1}); err != nil {
		t.Fatal(err)
	}
	live := []Record{
		{Type: TypeSubmit, Job: "job-a", Spec: []byte(`{}`), Attempts: 1},
		{Type: TypeLease, Job: "job-a", Worker: "w-1", Attempts: 1},
	}
	if err := l.Compact(live); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync after Compact: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, rec := openT(t, path)
	if !sameRecords(rec.Records, live) {
		t.Fatalf("replayed %+v, want the snapshot %+v", rec.Records, live)
	}
}
