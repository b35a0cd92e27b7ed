package serve

import (
	"sync"

	"fedwcm/internal/fl"
	"fedwcm/internal/sweep"
)

// Run lifecycle states as reported over the API. "cached" never appears on
// a live run record: it is the status of a response served straight from
// the store (submission hit, or a GET for an artifact with no in-process
// record).
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
	StatusCached  = "cached"
)

// run is the in-process record of one submitted spec: its state machine,
// accumulated progress and SSE subscribers. The run id is the spec
// fingerprint, which is what makes submission idempotent: a second POST of
// the same spec lands on the same record (single-flight) or on the stored
// artifact, never on a second execution.
type run struct {
	id   string
	spec sweep.RunSpec

	mu       sync.Mutex
	status   string
	progress []fl.RoundStat
	hist     *fl.History
	errMsg   string
	subs     map[chan fl.RoundStat]struct{}
	done     chan struct{} // closed on transition to done/failed
}

func newRun(id string, spec sweep.RunSpec) *run {
	return &run{
		id:     id,
		spec:   spec,
		status: StatusQueued,
		subs:   make(map[chan fl.RoundStat]struct{}),
		done:   make(chan struct{}),
	}
}

// onRound records a progress point and fans it out. Slow subscribers are
// skipped rather than blocking the training loop: SSE is a best-effort
// live feed, the history is the artifact of record.
func (r *run) onRound(s fl.RoundStat) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.progress = append(r.progress, s)
	for ch := range r.subs {
		select {
		case ch <- s:
		default:
		}
	}
}

func (r *run) setRunning() {
	r.mu.Lock()
	r.status = StatusRunning
	r.mu.Unlock()
}

func (r *run) finish(h *fl.History, err error) {
	r.mu.Lock()
	if err != nil {
		r.status = StatusFailed
		r.errMsg = err.Error()
	} else {
		r.status = StatusDone
		r.hist = h
	}
	r.mu.Unlock()
	close(r.done)
}

// subscribe registers an SSE listener and returns a replay of the progress
// so far, the live channel, and whether the run is already terminal. The
// channel is buffered generously relative to eval cadence; onRound drops
// events for listeners that fall further behind than that.
func (r *run) subscribe() (replay []fl.RoundStat, ch chan fl.RoundStat, terminal bool) {
	ch = make(chan fl.RoundStat, 256)
	r.mu.Lock()
	defer r.mu.Unlock()
	replay = append(replay, r.progress...)
	terminal = r.status == StatusDone || r.status == StatusFailed
	if !terminal {
		r.subs[ch] = struct{}{}
	}
	return replay, ch, terminal
}

func (r *run) unsubscribe(ch chan fl.RoundStat) {
	r.mu.Lock()
	delete(r.subs, ch)
	r.mu.Unlock()
}

// snapshot returns the fields a status response needs, consistently.
func (r *run) snapshot() (status string, progress []fl.RoundStat, hist *fl.History, errMsg string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status, append([]fl.RoundStat(nil), r.progress...), r.hist, r.errMsg
}
