package fl

import (
	"cmp"
	"container/heap"
	"context"
	"slices"
	"sort"
	"time"

	"fedwcm/internal/scenario"
	"fedwcm/internal/xrand"
)

// Run executes a full federated training run of method m in env and returns
// the recorded history.
//
// Concurrency model: the run owns a persistent pool of workers (see
// runtime), each with a private network instance (layers cache state and are
// not shareable) and a reusable ClientScratch. The engine dispatches clients
// to the pool in batches; results land in a slice indexed by batch position,
// and aggregation happens single-threaded afterwards in a canonical order,
// so the run is deterministic regardless of scheduling.
func Run(env *Env, m Method) *History {
	return RunWithProgress(env, m, nil)
}

// RunWithProgress is Run with a per-round progress hook: onRound, when
// non-nil, is invoked synchronously from the round loop with each RoundStat
// as it is recorded (the same values appended to the returned History).
// Serving layers use it to stream live progress; it has no effect on the
// run itself, so Run(env, m) and RunWithProgress(env, m, cb) produce
// identical histories.
func RunWithProgress(env *Env, m Method, onRound func(RoundStat)) *History {
	hist, _ := RunWithProgressCtx(context.Background(), env, m, onRound)
	return hist
}

// engine is the one round loop: a discrete-event simulation in virtual time.
// Each wave samples a cohort (drift, availability and drops applied), the
// survivors train in deterministic parallel batches, their completions pop
// from a (time, client, seq)-ordered queue into a buffer, and the server
// commits a version whenever the buffer fills. cfg.Async picks the policy:
//
//   - barrier (nil): K = concurrency = cohort and a plain Method.Aggregate.
//     A round's deadline is one time unit: stragglers report partial work
//     (WorkFrac) at it, and a round nobody reports in still spends it.
//   - async: K and concurrency from AsyncConfig, staleness-discounted
//     aggregation (see aggregateAsync), and stragglers do full work over
//     1/frac time units, optionally jittered.
//
// All state transitions happen single-threaded in RunWithProgressCtx; the
// worker pool only ever executes one batch at a time, so which worker
// trains which client is unobservable. No real clocks are involved.
type engine struct {
	env   *Env
	m     Method
	cfg   Config
	async *AsyncConfig // nil selects the barrier policy
	rt    *workerRuntime
	mx    *RunMetrics
	amx   AsyncMetrics // mx's async handles; all no-op under the barrier

	k    int // flush threshold
	conc int // clients training at once
	kc   int // cohort size per wave: min(SampleClients, clients)

	global    []float64
	sim       *scenario.Sim
	stage     int
	sampleRNG *xrand.RNG
	dropRNG   *xrand.RNG
	dropped   []bool

	now     float64
	version int
	wave    int
	seq     uint64

	events   eventQueue
	buffer   []*clientUpdate
	pending  []pendingJob
	inflight int
	busy     []bool // client currently dispatched (between dispatch and completion)
	free     []*clientUpdate

	discount func(stale int) float64

	// scratch reused across batches and aggregations
	jobbuf    []clientJob
	resbuf    []*ClientResult
	stalebuf  []int
	discbuf   []float64
	weightbuf []float64
	histbuf   []int
}

// clientUpdate is one in-flight (or buffered) client result plus its event
// coordinates. res points into the worker's scratch until the next batch
// recycles that slot; an update still queued then moves into owned.
type clientUpdate struct {
	res   *ClientResult
	owned ClientResult
	ver   int     // server version at dispatch (staleness = flush ver − this)
	wave  int     // sampling wave that drew the client
	seq   uint64  // dispatch sequence number, the event-order tiebreaker
	t     float64 // virtual completion time
}

// own deep-copies the result out of the worker's scratch, reusing this
// update's buffers.
func (u *clientUpdate) own() {
	if u.res == &u.owned {
		return
	}
	res := u.res
	delta, pred, payload := u.owned.Delta[:0], u.owned.PredHist[:0], u.owned.Payload[:0]
	u.owned = *res
	u.owned.Delta = append(delta, res.Delta...)
	u.owned.PredHist = append(pred, res.PredHist...)
	u.owned.Payload = append(payload, res.Payload...)
	u.res = &u.owned
}

// eventQueue is the virtual-time completion heap, ordered by
// (time, client, seq) — the deterministic pop order the property tests pin.
type eventQueue []*clientUpdate

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	a, b := q[i], q[j]
	if a.t != b.t {
		return a.t < b.t
	}
	if a.res.ClientID != b.res.ClientID {
		return a.res.ClientID < b.res.ClientID
	}
	return a.seq < b.seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*clientUpdate)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	u := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return u
}

// pendingJob is a sampled, not-yet-dispatched client of some wave.
type pendingJob struct {
	client int
	wave   int
	frac   float64 // share of the local step budget it runs
	dur    float64 // virtual duration of its local round
}

// RunWithProgressCtx is RunWithProgress with cooperative cancellation:
// ctx is checked between events, and a cancelled run returns the history
// accumulated so far alongside ctx's error. Cancellation is the only error
// source, so an uncancelled ctx yields a history identical to
// RunWithProgress's.
func RunWithProgressCtx(ctx context.Context, env *Env, m Method, onRound func(RoundStat)) (*History, error) {
	cfg := env.Cfg
	globalNet := env.Build(cfg.Seed)
	dim := globalNet.NumParams()
	global := make([]float64, dim)
	globalNet.VectorInto(global)
	m.Init(env, dim)

	// Observability: mx is never nil past this point (no-op bundles carry
	// nil handles, so every call below is safe and free when disabled); the
	// tracer stays optional — plain fl.Run has no trace to join.
	mx := env.Metrics
	if mx == nil {
		mx = DefaultRunMetrics()
	}
	nClients := len(env.Clients)
	kc := min(cfg.SampleClients, nClients)
	e := &engine{
		env: env, m: m, cfg: cfg, mx: mx, global: global,
		kc: kc, k: max(1, kc), conc: max(1, kc),
		sampleRNG: xrand.New(xrand.DeriveSeed(cfg.Seed, 0x5a3317)),
		dropRNG:   xrand.New(xrand.DeriveSeed(cfg.Seed, 0xd20b)),
		dropped:   make([]bool, kc),
		busy:      make([]bool, nClients),
	}
	if ac := cfg.Async; !ac.IsZero() {
		e.async = ac
		e.k = max(1, min(ac.K, kc))
		e.conc = max(1, min(ac.Concurrency, nClients))
		e.discount = func(stale int) float64 { return StalenessDiscount(stale, ac.Staleness, ac.StaleExp) }
		e.amx = mx.AsyncMetrics
	}
	e.rt = newRuntime(env, m, global, min(max(cfg.Workers, 1), e.conc))
	e.rt.metrics = mx
	defer e.rt.close()

	// Scenario dynamics: a Sim answers availability / partial-work / drift
	// queries deterministically from (seed, wave, client). Shot buckets are
	// fixed from the round-0 global train profile so the reported series
	// stays comparable even when drift reshapes the environment.
	if !cfg.Scenario.IsZero() {
		e.sim = scenario.NewSim(cfg.Scenario, cfg.Seed, nClients, cfg.Rounds)
		if e.sim.HasDrift() {
			// Drift rebuilds replace env.Clients mid-run; restore the base
			// views on exit so an Env reused across Run calls starts every
			// run from the same world (same spec ⇒ same history).
			base := env.Clients
			defer func() { env.Clients = base }()
		}
	}
	shotBuckets := ShotBuckets(env.GlobalCounts())
	testTotals := env.Test.ClassCounts()
	tracer := env.Tracer
	hist := &History{Method: m.Name()}
	lastTrainLoss := 0.0

	// A round runs from one commit to the next: its span and duration cover
	// the training dispatched in between and the commit itself.
	roundStart := time.Now()
	span := tracer.Start(env.TraceID, "fl.round").WithRound(1)

	// commit advances the server version after an aggregation or an empty
	// round (info is the async staleness breakdown; nil otherwise) and
	// evaluates every EvalEvery versions and at the last.
	commit := func(info *AsyncInfo) {
		e.version++
		if e.version%cfg.EvalEvery == 0 || e.version == cfg.Rounds {
			globalNet.SetVector(e.global)
			acc, perClass := Evaluate(globalNet, env.Test, 256)
			stat := RoundStat{Round: e.version, TestAcc: acc, PerClass: perClass,
				TrainLoss: lastTrainLoss,
				Shot:      ShotAccuracy(perClass, testTotals, shotBuckets)}
			if mr, ok := m.(MetricsReporter); ok {
				stat.Metrics = mr.RoundMetrics()
			}
			if cfg.Clock {
				stat.Time = e.now
				if e.async != nil {
					stat.Async = asyncRoundStat(info, e.wave)
				}
			}
			for _, probe := range env.Probes {
				probe(e.version, globalNet)
			}
			hist.Stats = append(hist.Stats, stat)
			mx.TestAcc.Set(acc)
			mx.TrainLoss.Set(lastTrainLoss)
			if stat.Shot != nil {
				mx.ShotHead.Set(stat.Shot.Head)
				mx.ShotMedium.Set(stat.Shot.Medium)
				mx.ShotTail.Set(stat.Shot.Tail)
			}
			mx.ReportDiag(stat.Metrics)
			if onRound != nil {
				onRound(stat)
			}
		}
		mx.Rounds.Inc()
		e.amx.AsyncClock.Set(e.now)
		mx.RoundSeconds.Observe(time.Since(roundStart).Seconds())
		span.End()
		// The span opened after the last commit is never ended, so never recorded.
		roundStart = time.Now()
		span = tracer.Start(env.TraceID, "fl.round").WithRound(e.version + 1)
	}

	flush := func() {
		info := e.aggregate()
		// Track the train loss across rounds so an evaluation after a round
		// where nobody took a step (possible under outage scenarios)
		// reports the last observed loss instead of a spurious 0.0 dip.
		lossSum, cnt := 0.0, 0
		for _, res := range e.resbuf {
			if res.Steps > 0 {
				lossSum += res.MeanLoss
				cnt++
			}
		}
		if cnt > 0 {
			lastTrainLoss = lossSum / float64(cnt)
		}
		e.free = append(e.free, e.buffer...)
		e.buffer = e.buffer[:0]
		e.amx.AsyncBufferFill.Set(0)
		commit(info)
	}

	for e.version < cfg.Rounds {
		if err := ctx.Err(); err != nil {
			return hist, err
		}
		// Draw the next wave once the previous one is fully dispatched and
		// the buffer has flushed: under the barrier every wave is one round;
		// under async clients run continuously and the gate keeps wave order
		// deterministic.
		if len(e.pending) == 0 && len(e.buffer) == 0 && e.inflight < e.conc {
			e.drawWave()
			if len(e.pending) == 0 && e.inflight == 0 {
				// Nobody to wait for: the version advances with no
				// aggregation, as a real server facing an outage must. The
				// barrier still waits out its deadline.
				if e.async == nil {
					e.now++
				}
				commit(nil)
				continue
			}
		}
		if free := e.conc - e.inflight; free > 0 && len(e.pending) > 0 {
			e.dispatch(free)
		}
		u := heap.Pop(&e.events).(*clientUpdate)
		e.now = u.t
		e.inflight--
		e.busy[u.res.ClientID] = false
		e.buffer = append(e.buffer, u)
		e.amx.AsyncEvents.Inc()
		e.amx.AsyncBufferFill.Set(float64(len(e.buffer)))
		// Flush at K, or below K once nothing else can arrive — waiting for
		// updates that can never come would deadlock (liveness rule).
		if len(e.buffer) >= e.k || e.events.Len() == 0 && len(e.pending) == 0 {
			flush()
		}
	}
	return hist, nil
}

// drawWave samples the next cohort from the sampling stream, applies drift
// at stage boundaries and availability or the DropProb coin-flip per
// sampled position, and queues the survivors. Survivors still in flight
// from an earlier wave (only possible under async) are skipped — a client
// cannot train twice concurrently.
func (e *engine) drawWave() {
	w := e.wave
	e.wave++
	e.amx.AsyncWaves.Inc()
	if e.sim != nil {
		// Drift: at a stage boundary, re-partition the (immutable) train
		// set under the stage's interpolated β and trim tail classes toward
		// the stage's IF. The rebuild replaces env.Clients while all workers
		// are idle; they observe it through the batch's happens-before edges.
		if st := e.sim.Stage(w); st != e.stage && e.env.Repartition != nil && e.env.BaseBeta > 0 {
			e.stage = st
			beta, ifac := e.sim.StageParams(st, e.env.BaseBeta, e.env.BaseIF)
			part := e.env.Repartition(scenario.DriftSeed(e.cfg.Seed, st), beta)
			e.env.Clients = driftClients(e.env.Train, part, scenario.KeepFracs(e.env.Train.Classes, e.env.BaseIF, ifac))
		}
		e.sim.BeginRound(w)
	}
	sampled := e.sampleRNG.SampleWithoutReplacement(len(e.env.Clients), e.kc)
	sort.Ints(sampled) // canonical order; keeps aggregation reproducible
	// Failure injection: decide upfront (deterministically) which of the
	// sampled clients drop out. A dropped client does no work at all, so the
	// simulated cost model is "failed before training", not "trained but
	// unreported". The availability trace replaces the flat coin-flip.
	dropped := e.dropped[:len(sampled)]
	clear(dropped)
	switch {
	case e.sim != nil && e.sim.HasAvailability():
		for i, id := range sampled {
			dropped[i] = !e.sim.Available(id)
		}
	case e.cfg.DropProb > 0:
		anySurvives := false
		for i := range dropped {
			dropped[i] = e.dropRNG.Float64() < e.cfg.DropProb
			anySurvives = anySurvives || !dropped[i]
		}
		if !anySurvives {
			dropped[0] = false // a round with zero reports would stall
		}
	}
	for i, id := range sampled {
		if dropped[i] {
			e.mx.Dropped.Inc()
			continue
		}
		if e.busy[id] {
			continue
		}
		frac := 1.0
		if e.sim != nil && e.sim.HasStraggler() {
			frac = e.sim.WorkFraction(w, id)
		}
		if frac < 1 {
			e.mx.Stragglers.Inc()
		}
		job := pendingJob{client: id, wave: w, frac: frac, dur: 1}
		if e.async != nil {
			// Stragglers are slow, not partial: without a round deadline the
			// client finishes its full step budget over 1/frac time units.
			job.frac = 1
			if frac > 0 && frac < 1 {
				job.dur = 1 / frac
			}
			if e.async.Jitter > 0 {
				jrng := xrand.New(xrand.DeriveSeed(e.cfg.Seed, uint64(w), uint64(id), 0xa57e))
				job.dur *= 1 + e.async.Jitter*(2*jrng.Float64()-1)
			}
		}
		e.pending = append(e.pending, job)
	}
}

// dispatch trains up to n pending clients as one deterministic parallel
// batch against the current global weights and method state, then queues
// their completion events.
func (e *engine) dispatch(n int) {
	// The batch recycles every worker's scratch result slots: updates still
	// queued from an earlier batch take a copy first. Under the barrier
	// every update is aggregated before the next batch, so none is copied.
	for _, u := range e.events {
		u.own()
	}
	for _, u := range e.buffer {
		u.own()
	}
	n = min(n, len(e.pending))
	e.jobbuf = e.jobbuf[:0]
	for i, p := range e.pending[:n] {
		e.jobbuf = append(e.jobbuf, clientJob{pos: i, client: p.client, round: p.wave, frac: p.frac})
	}
	for i, res := range e.rt.runBatch(n, e.jobbuf) {
		u := e.newUpdate()
		u.res, u.ver, u.wave, u.seq, u.t = res, e.version, e.pending[i].wave, e.seq, e.now+e.pending[i].dur
		e.seq++
		heap.Push(&e.events, u)
		e.inflight++
		e.busy[res.ClientID] = true
	}
	e.pending = e.pending[:copy(e.pending, e.pending[n:])]
}

func (e *engine) newUpdate() *clientUpdate {
	if n := len(e.free); n > 0 {
		u := e.free[n-1]
		e.free = e.free[:n-1]
		return u
	}
	return &clientUpdate{}
}

// aggregate hands the buffer to the method in canonical (ClientID, seq)
// order — under the barrier, the sorted cohort order. The barrier calls
// plain Aggregate; async adds the staleness breakdown it returns.
func (e *engine) aggregate() *AsyncInfo {
	slices.SortFunc(e.buffer, func(a, b *clientUpdate) int {
		return cmp.Or(cmp.Compare(a.res.ClientID, b.res.ClientID), cmp.Compare(a.seq, b.seq))
	})
	e.resbuf = e.resbuf[:0]
	for _, u := range e.buffer {
		e.resbuf = append(e.resbuf, u.res)
	}
	if e.async == nil {
		e.m.Aggregate(e.version, e.global, e.resbuf)
		return nil
	}
	return e.aggregateAsync()
}
