package dispatch

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"fedwcm/internal/dispatch/wal"
)

var t0 = time.Unix(1_700_000_000, 0).UTC()

// TestQueueExpiryKeepsAttemptHandoverRefunds: an expired lease requeues
// keeping its attempt, a clean handover refunds it, and replaying the
// journal lands on the same count.
func TestQueueExpiryKeepsAttemptHandoverRefunds(t *testing.T) {
	q := newQueue(time.Second, 3)
	var journal []wal.Record
	_, recs := q.submit("j", []byte(`{}`), t0)
	journal = append(journal, recs...)
	q.register("w-1", "", 1, t0)
	j, recs := q.lease("w-1", t0)
	journal = append(journal, recs...)
	if j == nil || j.attempts != 1 {
		t.Fatalf("lease: %+v", j)
	}
	lapsed, recs := q.expire(t0.Add(time.Second))
	journal = append(journal, recs...)
	if len(lapsed) != 1 || j.state != jobPending || j.attempts != 1 {
		t.Fatalf("expiry: %d lapsed, job %+v; want a requeue keeping attempt 1", len(lapsed), j)
	}
	q.register("w-2", "", 1, t0)
	_, recs = q.lease("w-2", t0.Add(time.Second))
	journal = append(journal, recs...)
	if j.attempts != 2 {
		t.Fatalf("second lease: attempts %d, want 2", j.attempts)
	}
	requeued, recs := q.handover("w-2", t0.Add(time.Second))
	journal = append(journal, recs...)
	if len(requeued) != 1 || j.attempts != 1 || q.workers["w-2"] != nil {
		t.Fatalf("handover: requeued %d, attempts %d; want the attempt refunded and the worker gone", len(requeued), j.attempts)
	}
	r := newQueue(time.Second, 3)
	if skipped := r.recover(journal, t0); skipped != 0 {
		t.Fatalf("%d journaled records did not apply", skipped)
	}
	if rj := r.jobs["j"]; rj == nil || rj.state != jobPending || rj.attempts != 1 {
		t.Fatalf("replayed job %+v, want pending with 1 attempt", rj)
	}
}

// TestQueueCompleteThenResubmitIsNewEpoch: a completed id submitted again
// is a new epoch; the old epoch cannot be completed a second time, and
// replay keeps the new one live.
func TestQueueCompleteThenResubmitIsNewEpoch(t *testing.T) {
	q := newQueue(time.Second, 3)
	var journal []wal.Record
	old, recs := q.submit("k", []byte(`{"v":1}`), t0)
	journal = append(journal, recs...)
	journal = append(journal, q.complete(old, "failed")...)
	cur, recs := q.submit("k", []byte(`{"v":1}`), t0)
	journal = append(journal, recs...)
	if cur == old || cur.seq == old.seq {
		t.Fatal("resubmission reused the finished epoch")
	}
	if recs := q.complete(old, "failed"); recs != nil || q.jobs["k"] != cur {
		t.Fatalf("stale epoch completed again (%+v); the live epoch must survive", recs)
	}
	if q.detach(old) {
		t.Fatal("stale epoch detached")
	}
	r := newQueue(time.Second, 3)
	if skipped := r.recover(journal, t0); skipped != 0 || r.jobs["k"] == nil || len(r.pending) != 1 {
		t.Fatalf("replay: %d skipped, jobs %v; want k live once", skipped, r.jobs)
	}
}

// TestQueueLeasedJobSurvivesCompaction: a checkpoint of a queue holding a
// lease replays to the same state, and recovering it puts the leased job
// first with its attempt refunded.
func TestQueueLeasedJobSurvivesCompaction(t *testing.T) {
	q := newQueue(time.Second, 3)
	for _, id := range []string{"a", "b", "c"} {
		q.submit(id, []byte(id), t0)
	}
	q.register("w-9", "", 1, t0)
	q.lease("w-9", t0)
	snap := q.snapshot()
	r := newQueue(time.Second, 3)
	for _, rec := range snap {
		if !r.replay(rec, t0) {
			t.Fatalf("snapshot record %+v did not apply", rec)
		}
	}
	if err := sameState(r, q); err != nil {
		t.Fatalf("snapshot replay: %v", err)
	}
	r = newQueue(time.Second, 3)
	r.recover(snap, t0)
	if got := pendingIDs(r); !slices.Equal(got, []string{"a", "b", "c"}) {
		t.Fatalf("recovered order %v, want the leased job first", got)
	}
	if r.jobs["a"].attempts != 0 {
		t.Fatalf("recovered lease kept its attempt: %d", r.jobs["a"].attempts)
	}
}

// --- seeded simulation ---

const (
	simTTL         = 10 * time.Second
	simMaxAttempts = 3
	simIDs         = 16
)

// TestQueueSimulation drives the queue through seeded random interleavings
// of every transition the coordinator makes — submit and resubmit, lease,
// heartbeat and adoption, expiry, deregistration, stored, failed,
// duplicate and stale-error uploads, checkpoints and restarts — on a
// virtual clock, in the spirit of FoundationDB's simulation testing. After
// every journal record it crashes: the record prefix is replayed into a
// fresh queue and recovered, and the invariants are checked against the
// live state. Every run of a seed makes the same choices, so a failing
// seed reproduces on rerun; the failure prints the seed and the operation
// trace.
func TestQueueSimulation(t *testing.T) {
	seeds, steps := 10000, 120
	if testing.Short() {
		seeds = 2000
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		s := newSim(seed)
		if err := s.run(steps); err != nil {
			tail := s.trace
			if len(tail) > 40 {
				tail = tail[len(tail)-40:]
			}
			t.Fatalf("seed %d: %v\nlast operations:\n  %s", seed, err, strings.Join(tail, "\n  "))
		}
	}
}

type sim struct {
	rng *rand.Rand
	now time.Time
	q   *queue

	journal []wal.Record    // what the coordinator handed to the log
	shadow  *queue          // journal replayed record by record
	liveAt  map[string]bool // ids submitted and not completed, folded from the journal alone
	stored  map[string]bool // artifacts in the store
	storing []*qjob         // detached by an upload, store put pending
	putDone []*qjob         // artifact stored, complete not yet journaled
	epochs  []*qjob         // every epoch ever submitted
	ended   map[*qjob]int   // complete records per epoch
	workers []string        // every worker id ever registered
	trace   []string
}

func newSim(seed int64) *sim {
	s := &sim{
		rng:    rand.New(rand.NewSource(seed)),
		now:    t0,
		q:      newQueue(simTTL, simMaxAttempts),
		stored: make(map[string]bool),
		ended:  make(map[*qjob]int),
	}
	s.resetJournal(nil) // an empty log: nothing to apply
	return s
}

func (s *sim) run(steps int) error {
	for i := 0; i < steps; i++ {
		if err := s.step(); err != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
	}
	live := len(s.q.jobs)
	if js := s.q.close(); len(js) != live || len(s.q.jobs) != 0 || len(s.q.pending) != 0 {
		return fmt.Errorf("close dropped %d of %d jobs, left %d", len(js), live, len(s.q.jobs))
	}
	for _, w := range s.q.workers {
		if len(w.inflight) != 0 {
			return fmt.Errorf("close left worker %s holding %d leases", w.id, len(w.inflight))
		}
	}
	return nil
}

func (s *sim) logf(format string, args ...any) {
	s.trace = append(s.trace, fmt.Sprintf(format, args...))
}

func (s *sim) pickID() string { return fmt.Sprintf("job-%02d", s.rng.Intn(simIDs)) }

func (s *sim) pickWorker() string {
	if len(s.workers) == 0 {
		return "w-none"
	}
	return s.workers[s.rng.Intn(len(s.workers))]
}

// pickLive returns a random live job, nil when there is none.
func (s *sim) pickLive() *qjob {
	ids := sortedIDs(s.q)
	if len(ids) == 0 {
		return nil
	}
	return s.q.jobs[ids[s.rng.Intn(len(ids))]]
}

func pickJob(rng *rand.Rand, js []*qjob) ([]*qjob, *qjob) {
	if len(js) == 0 {
		return js, nil
	}
	i := rng.Intn(len(js))
	j := js[i]
	return append(js[:i:i], js[i+1:]...), j
}

func (s *sim) step() error {
	q := s.q
	before := make(map[string]*qjob, len(q.jobs))
	for id, j := range q.jobs {
		before[id] = j
	}
	var recs []wal.Record
	switch k := s.rng.Intn(100); {
	case k < 16:
		id := s.pickID()
		if s.stored[id] {
			s.logf("submit %s: cached in the store", id)
			break
		}
		j, r := q.submit(id, []byte(id), s.now)
		if r != nil {
			s.epochs = append(s.epochs, j)
		}
		s.logf("submit %s: created=%v", id, r != nil)
		recs = r
	case k < 21:
		if len(q.workers) >= 4 {
			break
		}
		id := fmt.Sprintf("w-%d", len(s.workers)+1)
		slots := 1 + s.rng.Intn(3)
		q.register(id, "", slots, s.now)
		s.workers = append(s.workers, id)
		s.logf("register %s slots=%d", id, slots)
	case k < 36:
		wid := s.pickWorker()
		if q.touch(wid, s.now) == nil {
			break
		}
		var j *qjob
		j, recs = q.lease(wid, s.now)
		s.logf("lease %s: %v", wid, jobName(j))
	case k < 48:
		wid, j := s.pickWorker(), s.pickLive()
		if j != nil && j.state == jobLeased && s.rng.Intn(2) == 0 {
			wid = j.worker // mostly the holder's own beat
		}
		id := s.pickID()
		if j != nil {
			id = j.id
		}
		if q.touch(wid, s.now) == nil {
			break
		}
		if q.extend(wid, id, s.now) != nil {
			s.logf("heartbeat %s %s: extended", wid, id)
			break
		}
		var a *qjob
		a, recs = q.adopt(wid, id, s.now)
		s.logf("heartbeat %s %s: adopted=%v", wid, id, a != nil)
	case k < 58:
		s.now = s.now.Add(time.Duration(s.rng.Int63n(int64(simTTL) * 4 / 5)))
		var lapsed []*qjob
		lapsed, recs = q.expire(s.now)
		s.logf("tick to +%v: %d leases lapsed", s.now.Sub(t0), len(lapsed))
	case k < 62:
		wid := s.pickWorker()
		js, r := q.handover(wid, s.now)
		s.logf("deregister %s: %d requeued", wid, len(js))
		recs = r
	case k < 71: // successful upload, possibly a duplicate
		j := s.pickLive()
		if j == nil {
			break
		}
		if !q.detach(j) {
			s.logf("upload %s: duplicate", j.id)
			break
		}
		s.storing = append(s.storing, j)
		s.logf("upload %s: detached for storing", j.id)
	case k < 77:
		var j *qjob
		if s.storing, j = pickJob(s.rng, s.storing); j != nil {
			s.stored[j.id] = true
			s.putDone = append(s.putDone, j)
			s.logf("store put %s", j.id)
		}
	case k < 83:
		var j *qjob
		if s.putDone, j = pickJob(s.rng, s.putDone); j != nil {
			recs = q.complete(j, "stored")
			s.logf("complete %s stored: %d records", j.id, len(recs))
		}
	case k < 89: // error upload: honoured only from the lease holder
		wid, j := s.pickWorker(), s.pickLive()
		if j == nil {
			break
		}
		if j.state == jobLeased && s.rng.Intn(3) > 0 {
			wid = j.worker
		}
		if j.state != jobLeased || j.worker != wid {
			s.logf("error upload %s from %s: stale, rejected", j.id, wid)
			break
		}
		recs = q.complete(j, "failed")
		s.logf("error upload %s from %s: failed", j.id, wid)
	case k < 92: // empty history: fails the job unless it is being stored
		if j := s.pickLive(); j != nil && j.state != jobStoring {
			recs = q.complete(j, "failed")
			s.logf("empty upload %s: failed", j.id)
		}
	case k < 95: // a finished epoch is inert
		if len(s.epochs) == 0 {
			break
		}
		j := s.epochs[s.rng.Intn(len(s.epochs))]
		if q.jobs[j.id] == j {
			break
		}
		if r := q.complete(j, "failed"); r != nil || q.detach(j) {
			return fmt.Errorf("finished epoch %s#%d changed state", j.id, j.seq)
		}
	case k < 97:
		s.logf("checkpoint")
		if err := s.resetJournal(q.snapshot()); err != nil {
			return err
		}
	default:
		s.logf("restart")
		return s.restart()
	}
	if err := s.emit(recs, before); err != nil {
		return err
	}
	if err := checkStructure(q, true); err != nil {
		return fmt.Errorf("live queue: %w", err)
	}
	if err := sameState(s.shadow, q); err != nil {
		return fmt.Errorf("journal replay diverges from the live queue: %w", err)
	}
	snap := newQueue(simTTL, simMaxAttempts)
	for _, r := range q.snapshot() {
		if !snap.replay(r, s.now) {
			return fmt.Errorf("snapshot record %+v does not apply", r)
		}
	}
	if err := sameState(snap, q); err != nil {
		return fmt.Errorf("snapshot replay diverges from the live queue: %w", err)
	}
	// A store put moves no record but changes what recovery drops.
	return s.crash()
}

// emit journals one transition's records, crashing after each.
func (s *sim) emit(recs []wal.Record, before map[string]*qjob) error {
	for _, r := range recs {
		if r.Type == wal.TypeComplete {
			ep := before[r.Job]
			if s.ended[ep]++; s.ended[ep] > 1 {
				return fmt.Errorf("epoch %s#%d terminated twice", r.Job, ep.seq)
			}
			if r.Status == "stored" && !s.stored[r.Job] {
				return fmt.Errorf("complete(stored) journaled for %s before its artifact was stored", r.Job)
			}
		}
		if err := s.apply(r); err != nil {
			return err
		}
		if err := s.crash(); err != nil {
			return fmt.Errorf("crash after record %d (%+v): %w", len(s.journal), r, err)
		}
	}
	return nil
}

// apply appends r to the journal and advances the shadow and the oracle.
func (s *sim) apply(r wal.Record) error {
	s.journal = append(s.journal, r)
	if !s.shadow.replay(r, s.now) {
		return fmt.Errorf("journaled record %+v does not apply on replay", r)
	}
	switch r.Type {
	case wal.TypeSubmit:
		if s.liveAt[r.Job] {
			return fmt.Errorf("submit journaled for live %s", r.Job)
		}
		s.liveAt[r.Job] = true
	case wal.TypeComplete:
		if !s.liveAt[r.Job] {
			return fmt.Errorf("complete journaled for %s, which is not live", r.Job)
		}
		delete(s.liveAt, r.Job)
	}
	return nil
}

// resetJournal replaces the log with a checkpoint (nil for an empty log).
func (s *sim) resetJournal(snap []wal.Record) error {
	s.journal = nil
	s.shadow = newQueue(simTTL, simMaxAttempts)
	s.liveAt = make(map[string]bool)
	for _, r := range snap {
		if err := s.apply(r); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	return nil
}

// recoverFrom is what NewCoordinator does with a journal: recover, then
// drop what the store already holds.
func recoverFrom(q *queue, recs []wal.Record, stored map[string]bool, now time.Time) int {
	skipped := q.recover(recs, now)
	for _, id := range sortedIDs(q) {
		if stored[id] {
			q.complete(q.jobs[id], "stored")
		}
	}
	return skipped
}

// crash checks what a coordinator restarted on the current journal would
// recover.
func (s *sim) crash() error {
	r := cloneQueue(s.shadow)
	recoverFrom(r, nil, s.stored, s.now)
	if err := checkStructure(r, true); err != nil {
		return fmt.Errorf("recovered queue: %w", err)
	}
	if len(r.workers) != 0 {
		return fmt.Errorf("recovered queue kept %d workers", len(r.workers))
	}
	// Acknowledged and not finished: present. Finished or stored: absent.
	for id := range s.liveAt {
		if !s.stored[id] && r.jobs[id] == nil {
			return fmt.Errorf("live job %s missing after recovery", id)
		}
	}
	for id := range r.jobs {
		if !s.liveAt[id] || s.stored[id] {
			return fmt.Errorf("recovery resurrected %s", id)
		}
	}
	// Leases live at the crash come back first, oldest first, refunded;
	// the queue behind them keeps its order.
	var leased []*qjob
	var want []string
	for _, j := range s.shadow.jobs {
		if j.state == jobLeased && !s.stored[j.id] {
			leased = append(leased, j)
		}
	}
	sort.Slice(leased, func(a, b int) bool { return leased[a].seq < leased[b].seq })
	for _, j := range leased {
		want = append(want, j.id)
		if got := r.jobs[j.id].attempts; got != j.attempts-1 {
			return fmt.Errorf("recovered lease %s has %d attempts, want %d (refunded)", j.id, got, j.attempts-1)
		}
	}
	for _, j := range s.shadow.pending {
		if !s.stored[j.id] {
			want = append(want, j.id)
		}
	}
	if got := pendingIDs(r); !slices.Equal(got, want) {
		return fmt.Errorf("recovered order %v, want %v", got, want)
	}
	return nil
}

// restart replaces the live queue with the one a coordinator restarted on
// the journal would run, checkpointed the way recoverWAL does. Uploads in
// flight die with the process.
func (s *sim) restart() error {
	q := newQueue(simTTL, simMaxAttempts)
	if skipped := recoverFrom(q, s.journal, s.stored, s.now); skipped != 0 {
		return fmt.Errorf("restart skipped %d journaled records", skipped)
	}
	s.q = q
	s.storing, s.putDone = nil, nil
	if err := s.resetJournal(q.snapshot()); err != nil {
		return err
	}
	return checkStructure(q, true)
}

// checkStructure checks that every live job sits in exactly one place
// and that the place matches the job map; live also checks worker slots
// (replayed lease holders are recreated without them).
func checkStructure(q *queue, live bool) error {
	where := make(map[*qjob]string)
	for _, j := range q.pending {
		if p, dup := where[j]; dup {
			return fmt.Errorf("%s is pending and %s", j.id, p)
		}
		where[j] = "pending"
		if j.state != jobPending || q.jobs[j.id] != j || j.attempts >= simMaxAttempts {
			return fmt.Errorf("pending %s: state %d, %d attempts, in job map %v", j.id, j.state, j.attempts, q.jobs[j.id] == j)
		}
	}
	for wid, w := range q.workers {
		if live && len(w.inflight) > w.slots {
			return fmt.Errorf("worker %s holds %d leases on %d slots", wid, len(w.inflight), w.slots)
		}
		for jid, j := range w.inflight {
			if p, dup := where[j]; dup {
				return fmt.Errorf("%s is held by %s and %s", jid, wid, p)
			}
			where[j] = "held by " + wid
			if j.id != jid || j.state != jobLeased || j.worker != wid || q.jobs[jid] != j || j.attempts < 1 {
				return fmt.Errorf("%s held by %s: state %d, worker %q, %d attempts, in job map %v",
					jid, wid, j.state, j.worker, j.attempts, q.jobs[jid] == j)
			}
		}
	}
	for id, j := range q.jobs {
		placed := where[j] != ""
		switch {
		case j.id != id:
			return fmt.Errorf("job map key %s holds %s", id, j.id)
		case j.state == jobStoring && placed:
			return fmt.Errorf("%s is being stored but %s", id, where[j])
		case (j.state == jobPending || j.state == jobLeased) && !placed:
			return fmt.Errorf("%s (state %d) sits nowhere", id, j.state)
		case j.state == jobDone:
			return fmt.Errorf("finished %s still in the job map", id)
		case j.attempts < 0 || j.attempts > simMaxAttempts:
			return fmt.Errorf("%s has %d attempts (max %d)", id, j.attempts, simMaxAttempts)
		}
	}
	return nil
}

// sameState checks that replayed (rebuilt from records) matches live. A
// job live is storing has no record of its own yet, so it replays in its
// last journaled place: it must exist, and is ignored for ordering.
func sameState(replayed, live *queue) error {
	for id, l := range live.jobs {
		r := replayed.jobs[id]
		switch {
		case r == nil:
			return fmt.Errorf("live %s not replayed", id)
		case r.attempts != l.attempts:
			return fmt.Errorf("%s: replayed %d attempts, live %d", id, r.attempts, l.attempts)
		case !bytes.Equal(r.spec, l.spec):
			return fmt.Errorf("%s: spec differs", id)
		case l.state != jobStoring && r.state != l.state, l.state == jobLeased && r.worker != l.worker:
			return fmt.Errorf("%s: replayed state %d/%q, live %d/%q", id, r.state, r.worker, l.state, l.worker)
		}
	}
	for id := range replayed.jobs {
		if live.jobs[id] == nil {
			return fmt.Errorf("replayed %s is not live", id)
		}
	}
	var got []string
	for _, j := range replayed.pending {
		if live.jobs[j.id].state != jobStoring {
			got = append(got, j.id)
		}
	}
	if want := pendingIDs(live); !slices.Equal(got, want) {
		return fmt.Errorf("replayed pending %v, live %v", got, want)
	}
	return nil
}

func cloneQueue(q *queue) *queue {
	c := newQueue(q.ttl, q.maxAttempts)
	c.seq = q.seq
	m := make(map[*qjob]*qjob, len(q.jobs))
	for id, j := range q.jobs {
		cj := *j
		m[j], c.jobs[id] = &cj, &cj
	}
	for _, j := range q.pending {
		c.pending = append(c.pending, m[j])
	}
	for id, w := range q.workers {
		cw := *w
		cw.inflight = make(map[string]*qjob, len(w.inflight))
		for jid, j := range w.inflight {
			cw.inflight[jid] = m[j]
		}
		c.workers[id] = &cw
	}
	return c
}

func sortedIDs(q *queue) []string {
	ids := make([]string, 0, len(q.jobs))
	for id := range q.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func pendingIDs(q *queue) []string {
	ids := make([]string, 0, len(q.pending))
	for _, j := range q.pending {
		ids = append(ids, j.id)
	}
	return ids
}

func jobName(j *qjob) string {
	if j == nil {
		return "none"
	}
	return fmt.Sprintf("%s#%d (attempt %d)", j.id, j.seq, j.attempts)
}
