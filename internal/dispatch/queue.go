package dispatch

import (
	"slices"
	"sort"
	"time"

	"fedwcm/internal/dispatch/wal"
)

// queue is the coordinator's job state machine: every way a job or a lease
// can change, as transitions with no I/O, no locks and no clock (they take
// now). The Coordinator's handlers, WAL recovery and the seeded simulation
// in the tests all drive it. Each transition returns the wal.Records it
// implies; the Coordinator journals them in that order under the lock that
// serializes the transitions, so every prefix of the log replays to a
// state the live queue passed through.
//
// A live job sits in exactly one place: the pending FIFO (jobPending), one
// worker's inflight set (jobLeased), or nowhere while a successful upload
// is being stored (jobStoring). jobs maps every live job by id.
type queue struct {
	ttl         time.Duration // lease length granted by lease, adopt and extend
	maxAttempts int           // expiry fails a job that has used this many leases

	jobs    map[string]*qjob
	pending []*qjob // lease order; requeues go to the front
	workers map[string]*qworker
	seq     uint64 // submissions so far: each epoch's identity and age
}

type jobState uint8

const (
	jobPending jobState = iota
	jobLeased
	jobStoring
	jobDone // the epoch has ended
)

// qjob is one epoch of a job id, from the submit that created it to the
// complete (or close) that ends it. Resubmitting a finished id starts a
// new epoch.
type qjob struct {
	id        string
	spec      []byte
	seq       uint64
	state     jobState
	worker    string // current lease holder while jobLeased, else the last one
	attempts  int    // leases granted, net of handover and crash refunds
	expiry    time.Time
	enqueued  time.Time // last entry into pending
	leasedAt  time.Time // grant of the current (or last) lease
	fromLease bool      // jobStoring: detached while leased
	rj        *remoteJob
}

type qworker struct {
	id, name string
	slots    int // max concurrent leases
	inflight map[string]*qjob
	lastSeen time.Time
}

func newQueue(ttl time.Duration, maxAttempts int) *queue {
	return &queue{
		ttl: ttl, maxAttempts: maxAttempts,
		jobs: make(map[string]*qjob), workers: make(map[string]*qworker),
	}
}

// register adds a worker. Workers are not journaled: a restarted
// coordinator knows none, and they re-register.
func (q *queue) register(id, name string, slots int, now time.Time) *qworker {
	w := &qworker{id: id, name: name, slots: slots, inflight: make(map[string]*qjob), lastSeen: now}
	q.workers[id] = w
	return w
}

// touch records that the worker is alive; nil means it is unknown.
func (q *queue) touch(id string, now time.Time) *qworker {
	w := q.workers[id]
	if w != nil {
		w.lastSeen = now
	}
	return w
}

// submit enqueues a new epoch of id at the back of pending, or returns the
// live epoch with no records, so identical submissions share one
// execution.
func (q *queue) submit(id string, spec []byte, now time.Time) (*qjob, []wal.Record) {
	if j := q.jobs[id]; j != nil {
		return j, nil
	}
	q.seq++
	j := &qjob{id: id, spec: spec, seq: q.seq, enqueued: now}
	q.jobs[id] = j
	q.pending = append(q.pending, j)
	return j, []wal.Record{{Type: wal.TypeSubmit, Job: id, Spec: spec}}
}

// lease grants the front pending job to the worker if it has a free slot.
func (q *queue) lease(wid string, now time.Time) (*qjob, []wal.Record) {
	if len(q.pending) == 0 {
		return nil, nil
	}
	return q.adopt(wid, q.pending[0].id, now)
}

// adopt grants the worker the lease on a pending job: the front one for
// lease, or one it heartbeats while re-attaching.
func (q *queue) adopt(wid, jid string, now time.Time) (*qjob, []wal.Record) {
	w, j := q.workers[wid], q.jobs[jid]
	if w == nil || j == nil || j.state != jobPending || len(w.inflight) >= w.slots {
		return nil, nil
	}
	return j, q.grant(j, w, now)
}

// extend renews the worker's lease on jid; nil means it holds none.
func (q *queue) extend(wid, jid string, now time.Time) *qjob {
	if w := q.workers[wid]; w != nil && w.inflight[jid] != nil {
		j := w.inflight[jid]
		j.expiry = now.Add(q.ttl)
		return j
	}
	return nil
}

// expire ends every lease past its expiry and returns the jobs. One that
// has used MaxAttempts leases fails (jobDone); the rest requeue at the
// front keeping the attempt. Workers with no leases unseen for ten lease
// lengths are forgotten.
func (q *queue) expire(now time.Time) ([]*qjob, []wal.Record) {
	var due, retry []*qjob
	for _, w := range q.workers {
		for _, j := range w.inflight {
			if !now.Before(j.expiry) {
				due = append(due, j)
			}
		}
	}
	sort.Slice(due, func(a, b int) bool { return due[a].seq < due[b].seq })
	var recs []wal.Record
	for _, j := range due {
		if j.attempts >= q.maxAttempts {
			recs = append(recs, q.complete(j, "failed")...)
		} else {
			retry = append(retry, j)
		}
	}
	recs = append(recs, q.requeue(retry, false, now)...)
	for id, w := range q.workers {
		if len(w.inflight) == 0 && now.Sub(w.lastSeen) > 10*q.ttl {
			delete(q.workers, id)
		}
	}
	return due, recs
}

// handover is a clean deregistration: the worker's leases requeue at the
// front with their attempt refunded — the retry budget is for crashes —
// and the worker is forgotten. It returns the requeued jobs.
func (q *queue) handover(wid string, now time.Time) ([]*qjob, []wal.Record) {
	var js []*qjob
	if w := q.workers[wid]; w != nil {
		for _, j := range w.inflight {
			js = append(js, j)
		}
	}
	recs := q.requeue(js, true, now)
	delete(q.workers, wid)
	return js, recs
}

// detach takes a job whose successful upload is being stored out of every
// queue place, so it cannot be leased or expired and further uploads are
// duplicates, until complete (once the artifact is durable) or close. False
// means j is not a live, unstored epoch.
func (q *queue) detach(j *qjob) bool {
	if q.jobs[j.id] != j || j.state == jobStoring {
		return false
	}
	q.unplace(j)
	j.state, j.fromLease = jobStoring, j.state == jobLeased
	return true
}

// complete ends the epoch with a terminal status ("stored" or "failed").
// A stale epoch — already finished, or replaced by a resubmission — is
// left alone and yields no record, so every epoch terminates at most once.
func (q *queue) complete(j *qjob, status string) []wal.Record {
	if q.jobs[j.id] != j {
		return nil
	}
	q.unplace(j)
	delete(q.jobs, j.id)
	j.state = jobDone
	return []wal.Record{{Type: wal.TypeComplete, Job: j.id, Status: status}}
}

// close drops every job and lease without journaling anything — shutdown
// is not completion — and returns the dropped jobs.
func (q *queue) close() []*qjob {
	var js []*qjob
	for _, j := range q.jobs {
		j.state = jobDone
		js = append(js, j)
	}
	q.jobs, q.pending = make(map[string]*qjob), nil
	for _, w := range q.workers {
		w.inflight = make(map[string]*qjob)
	}
	return js
}

// snapshot returns records that replay to the live state, for a
// checkpoint: a submit carrying the attempt count per job, pending ones in
// queue order, plus a lease per held lease. A job being stored checkpoints
// in the place it was detached from, as the journal would replay it;
// recovery drops it once its artifact is in the store.
func (q *queue) snapshot() []wal.Record {
	recs := make([]wal.Record, 0, len(q.jobs)+8)
	rest := make([]*qjob, 0, len(q.jobs)-len(q.pending))
	for _, j := range q.jobs {
		if j.state != jobPending {
			rest = append(rest, j)
		}
	}
	sort.Slice(rest, func(a, b int) bool { return rest[a].seq < rest[b].seq })
	for _, j := range append(q.pending[:len(q.pending):len(q.pending)], rest...) {
		recs = append(recs, wal.Record{Type: wal.TypeSubmit, Job: j.id, Spec: j.spec, Attempts: j.attempts})
		if j.state == jobLeased || j.state == jobStoring && j.fromLease {
			recs = append(recs, wal.Record{Type: wal.TypeLease, Job: j.id, Worker: j.worker, Attempts: j.attempts})
		}
	}
	return recs
}

// replay applies one journaled record through the transition that wrote
// it and adopts the record's attempt count; a lease's holder is recreated
// so the lease has somewhere to sit. False means the record does not apply
// to the current state (only logs written before journal order matched
// state order hold such records) and was skipped.
func (q *queue) replay(r wal.Record, now time.Time) bool {
	j := q.jobs[r.Job]
	switch {
	case r.Type == wal.TypeSubmit && j == nil:
		j, _ = q.submit(r.Job, r.Spec, now)
	case r.Type == wal.TypeLease && j != nil && j.state == jobPending:
		w := q.workers[r.Worker]
		if w == nil {
			w = q.register(r.Worker, "", 0, now)
		}
		q.grant(j, w, now)
	case r.Type == wal.TypeRequeue && j != nil && j.state == jobLeased:
		q.requeue([]*qjob{j}, false, now)
	case r.Type == wal.TypeComplete && j != nil:
		q.complete(j, r.Status)
		return true
	default:
		return false
	}
	j.attempts = r.Attempts
	return true
}

// recover rebuilds the queue from a journal, then hands every lease live
// at the crash back to the front of pending with its attempt refunded —
// the worker lost it to the coordinator's failure, not its own, and may
// re-attach through adopt. It returns how many records did not apply.
func (q *queue) recover(recs []wal.Record, now time.Time) (skipped int) {
	for _, r := range recs {
		if !q.replay(r, now) {
			skipped++
		}
	}
	var leased []*qjob
	for _, w := range q.workers {
		for _, j := range w.inflight {
			leased = append(leased, j)
		}
	}
	q.requeue(leased, true, now)
	q.workers = make(map[string]*qworker)
	return skipped
}

// grant leases pending j to w.
func (q *queue) grant(j *qjob, w *qworker, now time.Time) []wal.Record {
	q.unplace(j)
	j.state, j.worker = jobLeased, w.id
	j.attempts++
	j.expiry, j.leasedAt = now.Add(q.ttl), now
	w.inflight[j.id] = j
	return []wal.Record{{Type: wal.TypeLease, Job: j.id, Worker: w.id, Attempts: j.attempts}}
}

// requeue moves leased jobs back to the front of pending, oldest
// submission first, refunding the attempt when refund is set. Records go
// out in push order, so replaying them one by one rebuilds the same order.
func (q *queue) requeue(js []*qjob, refund bool, now time.Time) []wal.Record {
	sort.Slice(js, func(a, b int) bool { return js[a].seq > js[b].seq })
	recs := make([]wal.Record, 0, len(js))
	for _, j := range js {
		q.unplace(j)
		if refund {
			j.attempts--
		}
		j.state, j.enqueued = jobPending, now
		q.pending = append([]*qjob{j}, q.pending...)
		recs = append(recs, wal.Record{Type: wal.TypeRequeue, Job: j.id, Attempts: j.attempts})
	}
	return recs
}

// unplace removes j from whichever place it occupies.
func (q *queue) unplace(j *qjob) {
	switch j.state {
	case jobPending:
		if i := slices.Index(q.pending, j); i == 0 {
			q.pending = q.pending[1:] // the lease path: no copy
		} else if i > 0 {
			q.pending = slices.Delete(q.pending, i, i+1)
		}
	case jobLeased:
		if w := q.workers[j.worker]; w != nil {
			delete(w.inflight, j.id)
		}
	}
}
