package dispatch

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"fedwcm/internal/dispatch/wal"
	"fedwcm/internal/fl"
	"fedwcm/internal/obs"
	"fedwcm/internal/store"
	"fedwcm/internal/wire"
)

// CoordinatorConfig wires a Coordinator.
type CoordinatorConfig struct {
	Store *store.Store // required: the artifact exchange finished histories land in
	// LeaseTTL is how long a worker may hold a job without heartbeating
	// before the job is requeued onto surviving workers. 0 = 15s.
	LeaseTTL time.Duration
	// MaxAttempts caps how many leases a job may consume (first execution
	// included) before lease expiry fails it for good. 0 = 3.
	MaxAttempts int
	// Queue bounds jobs waiting for a lease. 0 = 4096 (one maximal sweep).
	Queue int
	// MaxWorkerSlots caps the per-worker in-flight limit a worker may
	// declare at registration. 0 = 8.
	MaxWorkerSlots int
	// WALPath, when non-empty, backs the queue with a write-ahead log
	// (internal/dispatch/wal) that journals every queue transition, and
	// NewCoordinator replays it so a restarted coordinator re-enters the
	// jobs that were live. Empty = in-memory only.
	WALPath string
	// WALCompactEvery checkpoints the WAL (rewriting it down to the live job
	// set) after this many completed jobs. 0 = 1024.
	WALCompactEvery int
	// Logf defaults to the unified slog route (obs.Logf("dispatch")); tests
	// pass t.Logf.
	Logf func(format string, args ...any)
	// Metrics receives the coordinator's series; nil uses the process
	// default registry. Tracer records lease-level spans; nil uses the
	// process default tracer.
	Metrics *obs.Registry
	Tracer  *obs.Tracer
}

// Coordinator is the remote dispatch backend: jobs queue here, workers
// registered over HTTP pull them via time-limited leases, heartbeat
// progress, and upload finished histories keyed by the job fingerprint.
// The upload path writes straight into the store, so duplicate uploads —
// a requeued job finished by two workers, a tardy worker acking after its
// lease expired — are idempotent by content address. Lease expiry requeues
// the job (capped by MaxAttempts); an explicit deregistration requeues
// without consuming an attempt (clean handover). Every such rule lives in
// the queue state machine (queue.go); the Coordinator adds HTTP, handles,
// progress relay, journaling, metrics and spans around it.
//
// Mount attaches the worker-facing endpoints to a mux; internal/serve does
// this for any Executor that implements it, so `fedserve -remote` serves
// the public run API and the worker protocol from one listener.
type Coordinator struct {
	cfg CoordinatorConfig

	mu   sync.Mutex
	q    *queue
	wake chan struct{} // closed+remade on every queue change
	seq  uint64        // worker ids handed out

	closed    chan struct{}
	closeOnce sync.Once
	reaperWG  sync.WaitGroup

	// Durability state, guarded by c.mu; wal is nil on an in-memory
	// coordinator. Only Submit waits for an fsync, outside c.mu.
	wal        *wal.Log
	recovered  int // jobs replayed from the WAL at startup
	reattached int // leases adopted by re-attaching workers
	completes  int // terminal records since the last checkpoint

	cm coordMetrics
}

// remoteJob is the coordinator's side of a queued job: its handle, the
// submitters' callbacks and the progress relay. Where the job sits, its
// lease and its attempts belong to the queue's qjob. c.mu guards both.
type remoteJob struct {
	h        *handle
	onRound  []func(fl.RoundStat)
	onStart  []func()
	started  bool
	lastBeat time.Time // feeds the heartbeat-gap histogram
	// Heartbeat dedup across attempts: a retry re-runs from round zero and
	// repeats the stats exactly, so relayed counts rounds delivered over the
	// job's lifetime and attemptSeen rounds received in the current attempt
	// (reset on each grant); only rounds past relayed are relayed. relayMu —
	// not c.mu — guards both and is held across the subscriber callbacks, so
	// a heartbeat relay and the result backfill never interleave. Lock order
	// is c.mu → relayMu.
	relayMu     sync.Mutex
	relayed     int
	attemptSeen int
	// suppressRelay marks an adopted lease: a mid-stream worker's rounds
	// cannot be ordered against what an earlier incarnation delivered, so
	// only the result upload's backfill relays them.
	suppressRelay bool
}

// NewCoordinator validates cfg, starts the lease reaper and returns the
// coordinator.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("dispatch: CoordinatorConfig.Store is required")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 4096
	}
	if cfg.MaxWorkerSlots <= 0 {
		cfg.MaxWorkerSlots = 8
	}
	if cfg.WALCompactEvery <= 0 {
		cfg.WALCompactEvery = 1024
	}
	if cfg.Logf == nil {
		cfg.Logf = obs.Logf("dispatch")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.Default()
	}
	if cfg.Tracer == nil {
		cfg.Tracer = obs.DefaultTracer()
	}
	c := &Coordinator{
		cfg:    cfg,
		q:      newQueue(cfg.LeaseTTL, cfg.MaxAttempts),
		wake:   make(chan struct{}),
		closed: make(chan struct{}),
	}
	c.cm = newCoordMetrics(cfg.Metrics, c.Stats)
	if cfg.WALPath != "" {
		if err := c.recoverWAL(); err != nil {
			return nil, err
		}
	}
	c.reaperWG.Add(1)
	go c.reaper()
	return c, nil
}

// recoverWAL opens (creating if absent) the write-ahead log and rebuilds
// the queue from it (queue.recover). Jobs whose artifact already landed in
// the store — the crash window between store.Put and the complete record —
// are dropped as done. Recovery ends with a checkpoint, so replayed history
// doesn't accrete across restarts.
func (c *Coordinator) recoverWAL() error {
	lg, recov, err := wal.Open(c.cfg.WALPath)
	if err != nil {
		return fmt.Errorf("dispatch: opening WAL %s: %w", c.cfg.WALPath, err)
	}
	c.wal = lg
	if recov.Torn {
		c.cfg.Logf("dispatch: wal %s: truncated %d-byte torn tail (crash mid-append)", c.cfg.WALPath, recov.Truncated)
	}
	skipped := c.q.recover(recov.Records, time.Now())
	for id, j := range c.q.jobs {
		if _, ok, gerr := c.cfg.Store.Get(id); gerr == nil && ok {
			c.q.complete(j, "stored") // the store, not the WAL, is the artifact of record
		} else {
			j.rj = &remoteJob{h: newHandle(Job{ID: id, Spec: j.spec})}
		}
	}
	c.recovered = len(c.q.jobs)
	if len(recov.Records) > 0 {
		c.cfg.Logf("dispatch: wal %s: recovered %d jobs from %d records (%d did not apply)",
			c.cfg.WALPath, c.recovered, len(recov.Records), skipped)
	}
	c.mu.Lock()
	c.checkpointLocked()
	c.mu.Unlock()
	return nil
}

// journalLocked hands a transition's records to the WAL (no-op in memory).
// Buffering them under c.mu, which serialized the transitions, makes
// journal order equal state order; losing the unsynced tail to a crash
// replays a state the queue really passed through. Every WALCompactEvery
// terminal records it checkpoints, so the log tracks the live job set.
func (c *Coordinator) journalLocked(recs []wal.Record) {
	if c.wal == nil || len(recs) == 0 {
		return
	}
	if err := c.wal.AppendAsync(recs...); err != nil {
		c.cm.walErrors.Inc()
		c.cfg.Logf("dispatch: wal append: %v", err)
		return
	}
	c.cm.walRecords.Add(uint64(len(recs)))
	for _, r := range recs {
		if r.Type == wal.TypeComplete {
			c.completes++
		}
	}
	if c.completes >= c.cfg.WALCompactEvery {
		c.checkpointLocked()
	}
}

// checkpointLocked rewrites the WAL down to the queue's snapshot; under
// c.mu no record can be buffered between the snapshot and the swap.
func (c *Coordinator) checkpointLocked() {
	c.completes = 0
	if err := c.wal.Compact(c.q.snapshot()); err != nil {
		c.cfg.Logf("dispatch: wal checkpoint: %v", err)
		return
	}
	c.cm.walCheckpoints.Inc()
}

// endLeaseLocked observes the end of j's latest lease: the lease-hold
// histogram and a "dispatch.lease" span under the job's trace ID, whose
// error field carries outcome ("" for a successful upload).
func (c *Coordinator) endLeaseLocked(j *qjob, outcome string, now time.Time) {
	held := now.Sub(j.leasedAt)
	c.cm.leaseHold.Observe(held.Seconds())
	c.cfg.Tracer.Record(obs.Span{
		Trace: j.id, Name: "dispatch.lease",
		Start: j.leasedAt.UnixMicro(), DurMS: float64(held) / float64(time.Millisecond),
		Worker: j.worker, Attempt: j.attempts, Err: outcome,
	})
	c.slotsLocked(c.q.workers[j.worker])
}

// slotsLocked publishes a worker's busy-slot gauge, labelled with its
// registered name (stable across restarts) or else its id.
func (c *Coordinator) slotsLocked(wk *qworker) {
	if wk != nil {
		c.cm.slotsBusy.With(cmp.Or(wk.name, wk.id)).Set(float64(len(wk.inflight)))
	}
}

// grantedLocked does the coordinator's side of a lease grant or adoption
// and returns the OnStart callbacks to run outside c.mu, if any.
func (c *Coordinator) grantedLocked(j *qjob, recs []wal.Record, now time.Time) []func() {
	c.journalLocked(recs)
	c.cm.leaseWait.Observe(now.Sub(j.enqueued).Seconds())
	c.slotsLocked(c.q.workers[j.worker])
	rj := j.rj
	rj.lastBeat = now
	rj.relayMu.Lock()
	rj.attemptSeen = 0 // a fresh attempt re-runs from round zero
	rj.relayMu.Unlock()
	c.wakeLocked()
	starts := rj.onStart // nil once started: Submit calls OnStart itself then
	rj.started, rj.onStart = true, nil
	return starts
}

// finishLocked completes j with a terminal status; a held lease ends with
// outcome. The caller completes the handle after unlocking.
func (c *Coordinator) finishLocked(j *qjob, status, outcome string, now time.Time) {
	leased := j.state == jobLeased
	c.journalLocked(c.q.complete(j, status))
	if leased {
		c.endLeaseLocked(j, outcome, now)
	}
	c.wakeLocked()
}

// wakeLocked wakes every lease long-poll and blocked Submit; caller holds
// c.mu.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// Submit queues the job for the next free worker. Identical in-flight
// submissions coalesce onto one job (their progress callbacks are all
// relayed), and a job whose artifact is already stored completes
// immediately without queueing — cached cells are never re-shipped. On a
// durable coordinator Submit returns only once the job's submit record is
// on disk. The job is leasable as soon as the record is buffered: any
// lease or complete record for it follows in the journal, so a crash
// before the fsync loses them together.
func (c *Coordinator) Submit(job Job, opts SubmitOpts) (Handle, error) {
	for {
		select {
		case <-c.closed:
			return nil, ErrClosed
		default:
		}
		// Store fast path: the artifact exchange already has this cell.
		if hist, ok, err := c.cfg.Store.Get(job.ID); err != nil {
			return nil, err
		} else if ok {
			h := newHandle(job)
			h.complete(hist, nil)
			return h, nil
		}
		c.mu.Lock()
		// Re-check under the lock: Close fails jobs while holding c.mu, so a
		// submission that only saw the pre-lock check could otherwise insert
		// into an already-drained coordinator and orphan its handle forever.
		select {
		case <-c.closed:
			c.mu.Unlock()
			return nil, ErrClosed
		default:
		}
		j := c.q.jobs[job.ID]
		if j == nil && len(c.q.pending) >= c.cfg.Queue {
			wake := c.wake
			c.mu.Unlock()
			if !opts.Block {
				return nil, ErrQueueFull
			}
			select {
			case <-wake:
				continue // re-check from the top (including the store)
			case <-c.closed:
				return nil, ErrClosed
			}
		}
		j, recs := c.q.submit(job.ID, job.Spec, time.Now())
		created := recs != nil
		if created {
			j.rj = &remoteJob{h: newHandle(job)}
			c.journalLocked(recs)
			c.wakeLocked()
		}
		rj := j.rj
		if opts.OnRound != nil {
			rj.onRound = append(rj.onRound, opts.OnRound)
		}
		startNow := opts.OnStart != nil && rj.started
		if opts.OnStart != nil && !rj.started {
			rj.onStart = append(rj.onStart, opts.OnStart)
		}
		c.mu.Unlock()
		if startNow {
			opts.OnStart()
		}
		if c.wal == nil {
			return rj.h, nil
		}
		// Concurrent submitters share the fsync via group commit. A coalesced
		// submission waits too: its acknowledgement promises the same record.
		err := c.wal.Sync()
		select {
		case <-c.closed: // Close raced the fsync and already failed the handle
			return nil, ErrClosed
		default:
		}
		if err != nil {
			c.cm.walErrors.Inc()
			if created {
				c.mu.Lock()
				c.finishLocked(j, "failed", "wal append failed", time.Now())
				c.mu.Unlock()
				rj.h.complete(nil, err)
			}
			return nil, err
		}
		return rj.h, nil
	}
}

// Close fails every non-terminal job with ErrClosed and stops the reaper.
// Workers discover the shutdown on their next poll and re-register when a
// coordinator returns. The WAL journals no completes for the drained jobs
// (queue.close): the next NewCoordinator on the same path re-enters them.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.mu.Lock()
		for _, j := range c.q.close() {
			j.rj.h.complete(nil, ErrClosed)
		}
		c.wakeLocked()
		if c.wal != nil {
			c.wal.Close()
		}
		c.mu.Unlock()
	})
	c.reaperWG.Wait()
}

var _ Executor = (*Coordinator)(nil)

// reaper expires leases (queue.expire) on a ticker.
func (c *Coordinator) reaper() {
	defer c.reaperWG.Done()
	t := time.NewTicker(min(max(c.cfg.LeaseTTL/4, 5*time.Millisecond), time.Second))
	defer t.Stop()
	for {
		select {
		case <-c.closed:
			return
		case now := <-t.C:
			c.expireLeases(now)
		}
	}
}

func (c *Coordinator) expireLeases(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lapsed, recs := c.q.expire(now)
	for _, j := range lapsed {
		c.cm.expiries.Inc()
		c.endLeaseLocked(j, "lease expired", now)
		fate := "requeueing"
		if j.state == jobDone {
			fate = "failing"
			j.rj.h.complete(nil, fmt.Errorf("dispatch: job %.12s failed: lease expired after %d attempts", j.id, j.attempts))
		} else {
			c.cm.requeues.Inc()
		}
		c.cfg.Logf("dispatch: job %.12s: lease expired on worker %s, attempt %d/%d — %s",
			j.id, j.worker, j.attempts, c.cfg.MaxAttempts, fate)
	}
	c.journalLocked(recs)
	if len(lapsed) > 0 {
		c.wakeLocked()
	}
}

// CoordinatorStats is a point-in-time snapshot of the coordinator,
// reported by sweep status responses.
type CoordinatorStats struct {
	Workers int `json:"workers"`
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	// Durable reports whether a WAL backs the queue. Recovered counts jobs
	// replayed from the WAL at startup; Reattached counts leases adopted by
	// workers that kept computing across a coordinator restart (or a lease
	// expiry) and re-attached without a recompute.
	Durable    bool `json:"durable,omitempty"`
	Recovered  int  `json:"recovered,omitempty"`
	Reattached int  `json:"reattached,omitempty"`
}

// Stats snapshots the queue.
func (c *Coordinator) Stats() CoordinatorStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CoordinatorStats{
		Workers: len(c.q.workers), Pending: len(c.q.pending),
		Durable: c.wal != nil, Recovered: c.recovered, Reattached: c.reattached,
	}
	for _, w := range c.q.workers {
		st.Leased += len(w.inflight)
	}
	return st
}

// --- wire types (shared with Worker, which lives in this package) ---

type registerRequest struct {
	Name  string `json:"name,omitempty"`
	Slots int    `json:"slots,omitempty"` // concurrent leases; 0 = 1
}

type registerResponse struct {
	ID       string `json:"id"`
	Slots    int    `json:"slots"` // possibly capped by the coordinator
	LeaseTTL int64  `json:"lease_ttl_ms"`
}

type leaseRequest struct {
	WaitMS int64 `json:"wait_ms,omitempty"` // long-poll budget; capped at 30s
}

type leaseResponse struct {
	Job Job `json:"job"`
}

type resultResponse struct {
	Status string `json:"status"` // "stored", "duplicate" or "failed"
}

// decodeBody unmarshals a worker-protocol request body into v, gunzipping
// it first when the request carries Content-Encoding: gzip, and returns
// the body's size on the wire (see wire.Decode).
func decodeBody(req *http.Request, v any) (int, error) {
	return wire.Decode(req.Body, req.Header.Get("Content-Encoding") == "gzip", v)
}

// bodyError answers a decodeBody failure: 413 past the size cap, 400
// otherwise.
func bodyError(w http.ResponseWriter, what string, err error) {
	code := http.StatusBadRequest
	if errors.Is(err, wire.ErrTooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	httpErr(w, code, "decoding %s: %v", what, err)
}

// errorBody mirrors internal/serve's error shape so worker-endpoint errors
// read like the rest of the API.
func httpErr(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		httpErr(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}

// Mount attaches the worker protocol to mux. Endpoint reference with
// example flows: docs/API.md.
func (c *Coordinator) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/workers", c.handleRegister)
	mux.HandleFunc("DELETE /v1/workers/{id}", c.handleDeregister)
	mux.HandleFunc("POST /v1/workers/{id}/lease", c.handleLease)
	mux.HandleFunc("POST /v1/workers/{id}/jobs/{job}/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /v1/workers/{id}/jobs/{job}/result", c.handleResult)
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, req *http.Request) {
	var r registerRequest
	// An empty body is a valid registration (defaults apply: anonymous
	// worker, one slot) — the decoder's io.EOF on zero bytes is not an
	// error, matching handleLease/handleHeartbeat. Malformed JSON still 400s.
	if _, err := decodeBody(req, &r); err != nil && !errors.Is(err, io.EOF) {
		bodyError(w, "registration", err)
		return
	}
	r.Slots = min(max(r.Slots, 1), c.cfg.MaxWorkerSlots)
	c.mu.Lock()
	c.seq++
	id := fmt.Sprintf("w-%d", c.seq)
	c.q.register(id, r.Name, r.Slots, time.Now())
	c.mu.Unlock()
	c.cfg.Logf("dispatch: worker %s registered (name %q, %d slots)", id, r.Name, r.Slots)
	writeJSON(w, http.StatusCreated, registerResponse{
		ID: id, Slots: r.Slots, LeaseTTL: c.cfg.LeaseTTL.Milliseconds(),
	})
}

// handleDeregister is the clean-shutdown path: the worker's in-flight jobs
// requeue immediately (queue.handover: to the front, without consuming an
// attempt) instead of waiting out their leases.
func (c *Coordinator) handleDeregister(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	c.mu.Lock()
	wk, ok := c.q.workers[id]
	if !ok {
		c.mu.Unlock()
		httpErr(w, http.StatusNotFound, "unknown worker %s", id)
		return
	}
	now := time.Now()
	for _, j := range wk.inflight {
		c.endLeaseLocked(j, "handover", now)
	}
	requeued, recs := c.q.handover(id, now)
	c.journalLocked(recs)
	c.cm.requeues.Add(uint64(len(requeued)))
	c.slotsLocked(wk)
	if len(requeued) > 0 {
		c.wakeLocked()
	}
	c.mu.Unlock()
	c.cfg.Logf("dispatch: worker %s deregistered (%d jobs requeued)", id, len(requeued))
	writeJSON(w, http.StatusOK, map[string]int{"requeued": len(requeued)})
}

// handleLease hands the next pending job to the worker, long-polling up to
// the requested budget when the queue is empty or the worker is at its
// in-flight limit. 204 means "nothing yet, poll again"; 404 means the
// worker is unknown (pruned or post-restart) and must re-register.
func (c *Coordinator) handleLease(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	var lr leaseRequest
	if _, err := decodeBody(req, &lr); err != nil && !errors.Is(err, io.EOF) {
		bodyError(w, "lease request", err)
		return
	}
	deadline := time.Now().Add(min(time.Duration(lr.WaitMS)*time.Millisecond, 30*time.Second))
	for {
		c.mu.Lock()
		now := time.Now()
		if c.q.touch(id, now) == nil {
			c.mu.Unlock()
			httpErr(w, http.StatusNotFound, "unknown worker %s (re-register)", id)
			return
		}
		if j, recs := c.q.lease(id, now); j != nil {
			j.rj.suppressRelay = false // a fresh attempt re-reports from round zero, so relaying can resume
			starts := c.grantedLocked(j, recs, now)
			job := j.rj.h.job
			c.mu.Unlock()
			for _, f := range starts {
				f()
			}
			w.Header().Set(obs.TraceHeader, job.ID)
			writeJSON(w, http.StatusOK, leaseResponse{Job: job})
			return
		}
		wake := c.wake
		c.mu.Unlock()
		remaining := time.Until(deadline)
		if remaining <= 0 {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		select {
		case <-wake:
			continue
		case <-req.Context().Done():
			return
		case <-time.After(remaining):
		case <-c.closed:
		}
		w.WriteHeader(http.StatusNoContent)
		return
	}
}

// handleHeartbeat extends the lease and relays progress. 410 tells the
// worker its lease is gone (expired and requeued, or the job finished
// elsewhere): abandon the work.
//
// A heartbeat for a pending job the worker does NOT hold is a re-attach
// (queue.adopt): the worker kept computing across a coordinator restart or
// its own lease expiry, so in-flight work survives instead of being
// recomputed. Its heartbeat rounds are not relayed — a mid-stream worker
// cannot be ordered against what an earlier incarnation delivered — and
// the result upload backfills the full history.
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, req *http.Request) {
	wid, jid := req.PathValue("id"), req.PathValue("job")
	var hb wire.Stats
	start := time.Now()
	if n, err := decodeBody(req, &hb); err == nil {
		c.cm.wire.observeDecode("stats", n, time.Since(start).Seconds())
	} else if !errors.Is(err, io.EOF) {
		bodyError(w, "heartbeat", err)
		return
	}
	c.mu.Lock()
	now := time.Now()
	if c.q.touch(wid, now) == nil {
		c.mu.Unlock()
		httpErr(w, http.StatusNotFound, "unknown worker %s (re-register)", wid)
		return
	}
	var starts []func()
	j := c.q.extend(wid, jid, now)
	if j == nil {
		var recs []wal.Record
		if j, recs = c.q.adopt(wid, jid, now); j == nil {
			c.mu.Unlock()
			httpErr(w, http.StatusGone, "lease on job %s lost", jid)
			return
		}
		j.rj.suppressRelay = true
		starts = c.grantedLocked(j, recs, now)
		c.cm.reattached.Inc()
		c.reattached++
		c.cfg.Logf("dispatch: job %.12s: worker %s re-attached mid-flight (attempt %d resumes)", jid, wid, j.attempts)
	} else {
		c.cm.beatGap.Observe(now.Sub(j.rj.lastBeat).Seconds())
		j.rj.lastBeat = now
	}
	rj := j.rj
	subs := append([]func(fl.RoundStat){}, rj.onRound...)
	suppress := rj.suppressRelay
	c.mu.Unlock()
	for _, f := range starts {
		f()
	}
	if !suppress && len(hb.Rounds) > 0 {
		// Relay only rounds past the high-water mark: a retry of a requeued
		// job re-reports the rounds its predecessor already delivered.
		// relayMu is held across the subscriber calls themselves so a
		// concurrent result backfill cannot interleave with this delivery.
		rj.relayMu.Lock()
		for _, st := range hb.Rounds {
			rj.attemptSeen++
			if rj.attemptSeen > rj.relayed {
				rj.relayed = rj.attemptSeen
				for _, f := range subs {
					f(st)
				}
			}
		}
		rj.relayMu.Unlock()
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

// handleResult ingests a finished job: the history is persisted under the
// job fingerprint (the ack the worker waits for) and the handle completes.
// Uploads are idempotent by content address — a duplicate from a second
// worker that computed the same requeued job, or from a worker whose lease
// expired mid-upload, is acknowledged without a second store write.
func (c *Coordinator) handleResult(w http.ResponseWriter, req *http.Request) {
	wid, jid := req.PathValue("id"), req.PathValue("job")
	var rr wire.Result
	start := time.Now()
	n, err := decodeBody(req, &rr)
	if err != nil {
		bodyError(w, "result", err)
		return
	}
	c.cm.wire.observeDecode("result", n, time.Since(start).Seconds())
	c.mu.Lock()
	now := time.Now()
	c.q.touch(wid, now)
	j := c.q.jobs[jid]
	if j == nil || j.state == jobStoring {
		c.mu.Unlock()
		// Terminal already, being stored by an earlier upload, or never
		// submitted: the store arbitrates. An artifact under this fingerprint
		// (or one on its way) means an equivalent upload landed first —
		// acknowledge the duplicate so the worker frees its slot.
		if j == nil {
			if _, found, err := c.cfg.Store.Get(jid); err != nil || !found {
				httpErr(w, http.StatusNotFound, "unknown job %s", jid)
				return
			}
		}
		c.cm.dup.Inc()
		c.cm.uploads.With("duplicate").Inc()
		writeJSON(w, http.StatusOK, resultResponse{Status: "duplicate"})
		return
	}
	rj := j.rj
	if rr.Error != "" || rr.History == nil || len(rr.History.Stats) == 0 {
		// An error upload is only honoured from the current lease holder: a
		// stale worker (lease expired, job requeued) reporting a worker-local
		// failure must not kill a retry that is actively recomputing the job.
		if rr.Error != "" && (j.state != jobLeased || j.worker != wid) {
			c.cm.uploads.With("rejected").Inc()
			c.mu.Unlock()
			httpErr(w, http.StatusGone, "lease on job %s lost; error discarded", jid)
			return
		}
		// An execution error is deterministic (same spec, same code path on
		// every worker) — retrying elsewhere would fail identically, so the
		// job fails now; the retry budget is reserved for lease expiry. An
		// empty upload fails it too rather than pin the cell "done" with
		// nothing in the store.
		status, outcome := "rejected", "empty history"
		err := fmt.Errorf("dispatch: job %.12s: worker %s uploaded an empty history", jid, wid)
		if rr.Error != "" {
			status, outcome = "failed", "worker error"
			err = fmt.Errorf("dispatch: job %.12s failed on worker %s: %s", jid, wid, rr.Error)
		}
		c.finishLocked(j, "failed", outcome, now)
		c.mu.Unlock()
		c.cm.uploads.With(status).Inc()
		rj.h.complete(nil, err)
		if rr.Error == "" {
			httpErr(w, http.StatusBadRequest, "empty history for job %s", jid)
			return
		}
		writeJSON(w, http.StatusOK, resultResponse{Status: "failed"})
		return
	}
	// Successful uploads are accepted from anyone — the result is a
	// deterministic function of the job. The job is detached while its
	// artifact is stored, and its complete record is journaled only once the
	// artifact is durable: a crash between the two replays the job and
	// recovery drops it as stored — never the log saying done while the
	// store has nothing.
	leased := j.state == jobLeased
	c.q.detach(j)
	if leased {
		c.endLeaseLocked(j, "", now)
	}
	c.wakeLocked()
	subs := append([]func(fl.RoundStat){}, rj.onRound...)
	c.mu.Unlock()
	c.cm.uploads.With("stored").Inc()
	if err := c.cfg.Store.Put(jid, rr.History); err != nil {
		// Mirror the local backend: the computation succeeded, so the
		// submitter gets the history even though re-serving after restart
		// is lost.
		c.cfg.Logf("dispatch: persisting job %.12s: %v", jid, err)
	}
	c.mu.Lock()
	c.journalLocked(c.q.complete(j, "stored"))
	c.mu.Unlock()
	// Persist the job's trace alongside the history: lease spans recorded by
	// this coordinator (workers keep their own execution spans). Best-effort
	// — traces are debugging artifacts, not part of the result contract.
	if spans := c.cfg.Tracer.Collect(jid); len(spans) > 0 {
		if err := c.cfg.Store.PutTrace(jid, spans); err != nil {
			c.cfg.Logf("dispatch: persisting trace for job %.12s: %v", jid, err)
		}
	}
	// Backfill progress the heartbeats never carried (rounds recorded after
	// the final beat — or all of them, for a job faster than one beat):
	// the history holds the full ordered round list, so relaying past the
	// high-water mark delivers every round exactly once, matching the
	// local backend's progress contract. relayMu is held across the
	// deliveries so a straggling heartbeat relay for the same job cannot
	// interleave its rounds with (or duplicate) the backfill.
	rj.relayMu.Lock()
	if rj.relayed < len(rr.History.Stats) {
		for _, st := range rr.History.Stats[rj.relayed:] {
			for _, f := range subs {
				f(st)
			}
		}
		rj.relayed = len(rr.History.Stats)
	}
	rj.relayMu.Unlock()
	rj.h.complete(rr.History, nil)
	writeJSON(w, http.StatusOK, resultResponse{Status: "stored"})
}
