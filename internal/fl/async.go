package fl

import (
	"fmt"
	"math"
)

// Staleness weighting modes for AsyncConfig.Staleness.
const (
	// StalePoly is the polynomial discount 1/(1+s)^exp of FedBuff/FedAsync:
	// fresh updates weigh 1, updates s server versions behind decay smoothly.
	StalePoly = "poly"
	// StaleUniform weighs every update 1 regardless of staleness. With
	// K = concurrency = cohort size the async policy replays the barrier
	// policy's histories (the equivalence the golden tests pin).
	StaleUniform = "uniform"
)

// AsyncConfig switches the round loop from its barrier policy to
// FedBuffer-style buffered asynchronous aggregation: clients run
// continuously, the server aggregates as soon as K updates arrive, and each
// update is discounted by its staleness (how many server versions committed
// between its dispatch and its aggregation).
//
// Like scenario.Scenario it is pure data inside fl.Config's JSON form and
// canonicalises: a nil or all-zero block means "synchronous" and marshals
// away entirely, so pre-async specs keep their fingerprints; enabling async
// requires at least one non-zero field (e.g. {"staleness":"poly"} or
// {"k":4}), after which Config.Defaults fills the remaining knobs.
//
// Time is virtual: a non-straggler client's local round takes 1 time unit,
// a straggler's takes 1/WorkFraction (slow, not partial — without a round
// deadline there is nothing to truncate its work), while barrier rounds take
// exactly 1 unit (their deadline). No real clocks are involved, so identical
// (spec, seed) pairs give bit-identical histories at any worker count.
type AsyncConfig struct {
	// K is the buffer size: the server aggregates whenever K updates are
	// buffered. Default max(1, SampleClients/2); clamped to the cohort.
	K int `json:"k,omitempty"`
	// Concurrency is how many clients train at once (FedBuff's MaxConc).
	// Default SampleClients.
	Concurrency int `json:"concurrency,omitempty"`
	// Staleness selects the discount: "poly" (default) or "uniform".
	Staleness string `json:"staleness,omitempty"`
	// StaleExp is poly's exponent (default 0.5); forced 0 under "uniform".
	StaleExp float64 `json:"stale_exp,omitempty"`
	// Jitter spreads client durations: each dispatch multiplies its virtual
	// duration by 1 + Jitter·u, u uniform in [-1,1), from a stream derived
	// from (seed, wave, client). 0 (default) disables the draw entirely.
	Jitter float64 `json:"jitter,omitempty"`
}

// IsZero reports whether the config carries no async semantics at all (nil
// or all-zero — both canonicalise away).
func (a *AsyncConfig) IsZero() bool { return a == nil || *a == AsyncConfig{} }

// normalized returns the canonical form: nil when zero, defaults filled
// otherwise (K and Concurrency derive from the configured cohort size).
// Idempotent, never mutates the receiver.
func (a *AsyncConfig) normalized(sampleClients int) *AsyncConfig {
	if a.IsZero() {
		return nil
	}
	out := *a
	if out.Staleness == "" {
		out.Staleness = StalePoly
	}
	if out.K == 0 {
		out.K = max(1, sampleClients/2)
	}
	if out.Concurrency == 0 {
		out.Concurrency = sampleClients
	}
	switch out.Staleness {
	case StaleUniform:
		out.StaleExp = 0
	case StalePoly:
		if out.StaleExp == 0 {
			out.StaleExp = 0.5
		}
	}
	return &out
}

// Validate checks the raw (pre-Defaults) spelling, mirroring
// scenario.Scenario.Validate: serving layers reject bad blocks before
// canonicalisation can paper over them.
func (a *AsyncConfig) Validate() error {
	if a == nil {
		return nil
	}
	if a.K < 0 {
		return fmt.Errorf("async: k must be >= 0, got %d", a.K)
	}
	if a.Concurrency < 0 {
		return fmt.Errorf("async: concurrency must be >= 0, got %d", a.Concurrency)
	}
	switch a.Staleness {
	case "", StalePoly, StaleUniform:
	default:
		return fmt.Errorf("async: unknown staleness mode %q (want %q or %q)", a.Staleness, StalePoly, StaleUniform)
	}
	if math.IsNaN(a.StaleExp) || a.StaleExp < 0 || a.StaleExp > 8 {
		return fmt.Errorf("async: stale_exp %g outside [0, 8]", a.StaleExp)
	}
	if a.Staleness == StaleUniform && a.StaleExp != 0 {
		return fmt.Errorf("async: stale_exp has no effect under uniform staleness")
	}
	if math.IsNaN(a.Jitter) || a.Jitter < 0 || a.Jitter >= 1 {
		return fmt.Errorf("async: jitter %g outside [0, 1)", a.Jitter)
	}
	return nil
}

// NamedAsync resolves a sweep-axis preset name to an AsyncConfig: "sync"
// (or "") is the synchronous barrier policy (nil config), "async" is buffered
// aggregation with the defaults (K = half the cohort, poly staleness), and
// "eager" aggregates on every single update (K = 1, maximum staleness
// pressure). Mirrors scenario.Named.
func NamedAsync(name string) (*AsyncConfig, error) {
	switch name {
	case "", "sync":
		return nil, nil
	case "async":
		return &AsyncConfig{Staleness: StalePoly}, nil
	case "eager":
		return &AsyncConfig{K: 1, Staleness: StalePoly}, nil
	}
	return nil, fmt.Errorf("async: unknown mode preset %q (known: %v)", name, AsyncNames())
}

// AsyncNames lists the mode presets NamedAsync accepts.
func AsyncNames() []string { return []string{"sync", "async", "eager"} }

// CanonicalAsyncName maps the synonyms for the synchronous default to ""
// and leaves the rest unchanged, so axis lists canonicalise the same way
// scenario names do.
func CanonicalAsyncName(name string) string {
	if name == "sync" {
		return ""
	}
	return name
}

// StalenessDiscount is the per-update discount d(s) ∈ (0, 1]: 1 for fresh
// updates, 1/(1+s)^exp under "poly", constant 1 under "uniform". Monotone
// non-increasing in s (the property tests pin this).
func StalenessDiscount(stale int, mode string, exp float64) float64 {
	if stale <= 0 || mode == StaleUniform || exp == 0 {
		return 1
	}
	return math.Pow(1/float64(1+stale), exp)
}

// AsyncInfo describes one buffered aggregation event, parallel to the
// results slice handed to the method: per-update staleness, the raw
// discounts, their convex normalisation, and the staleness histogram
// (Hist[s] = updates exactly s versions stale). FedWCM consumes the
// histogram to damp its adaptive α; the engine's generic fallback scales
// deltas by Weights for methods without an AsyncAggregator.
type AsyncInfo struct {
	Version   int       // server version this flush produces (1-based, = RoundStat.Round)
	Time      float64   // virtual wall-clock of the flush
	Partial   bool      // liveness flush below K (everything in flight had arrived)
	Stale     []int     // per-result staleness, aligned with results
	Discounts []float64 // raw d(s_i) ∈ (0,1]
	Weights   []float64 // Discounts normalised to sum 1 (a convex combination)
	Hist      []int     // staleness histogram
	Uniform   bool      // all discounts exactly 1 (methods skip reweighting)
	// Discount is the engine's configured discount function d(s), so methods
	// can evaluate it over the histogram (FedWCM's α damping) instead of
	// only per update. Discounts[i] == Discount(Stale[i]).
	Discount func(stale int) float64
}

// AsyncAggregator is the optional method extension for buffered-async runs:
// methods implementing it receive the staleness breakdown and own their
// discount composition (FedCM/FedWCM fold it into their momentum weights).
// Other methods get the engine fallback — deltas pre-scaled by the convex
// staleness weights, then a plain Aggregate call.
type AsyncAggregator interface {
	AggregateAsync(info *AsyncInfo, global []float64, results []*ClientResult)
}

// aggregateAsync folds the sorted buffer (e.resbuf) into the server update
// with staleness discounts: per-update staleness and discount, their convex
// normalisation and histogram, then the method's AggregateAsync or the
// generic fallback.
func (e *engine) aggregateAsync() *AsyncInfo {
	n := len(e.buffer)
	e.stalebuf = e.stalebuf[:0]
	e.discbuf = e.discbuf[:0]
	e.weightbuf = GrowWeights(e.weightbuf, n)
	maxStale := 0
	uniform := true
	total := 0.0
	for _, u := range e.buffer {
		s := e.version - u.ver
		d := e.discount(s)
		e.stalebuf = append(e.stalebuf, s)
		e.discbuf = append(e.discbuf, d)
		uniform = uniform && d == 1
		total += d
		maxStale = max(maxStale, s)
	}
	for i, d := range e.discbuf {
		e.weightbuf[i] = d / total
	}
	e.histbuf = e.histbuf[:0]
	for i := 0; i <= maxStale; i++ {
		e.histbuf = append(e.histbuf, 0)
	}
	for _, s := range e.stalebuf {
		e.histbuf[s]++
		e.amx.AsyncStaleness.Observe(float64(s))
	}
	info := &AsyncInfo{
		Version:   e.version + 1,
		Time:      e.now,
		Partial:   n < e.k,
		Stale:     e.stalebuf,
		Discounts: e.discbuf,
		Weights:   e.weightbuf,
		Hist:      e.histbuf,
		Uniform:   uniform,
		Discount:  e.discount,
	}
	if e.env.AsyncHook != nil {
		e.env.AsyncHook(info)
	}
	if aa, ok := e.m.(AsyncAggregator); ok {
		aa.AggregateAsync(info, e.global, e.resbuf)
	} else {
		// Generic fallback: pre-scale each delta by its convex staleness
		// weight × n, so a base-uniform method's effective weights become
		// exactly the staleness combination; size-weighted methods get the
		// same discount applied multiplicatively. Skipped entirely when every
		// discount is 1, keeping the K = cohort replay bit-identical.
		if !uniform {
			for i, res := range e.resbuf {
				s := e.weightbuf[i] * float64(n)
				for j := range res.Delta {
					res.Delta[j] *= s
				}
			}
		}
		e.m.Aggregate(info.Version-1, e.global, e.resbuf)
	}
	e.amx.AsyncAggs.Inc()
	if info.Partial {
		e.amx.AsyncPartial.Inc()
	}
	return info
}

// asyncRoundStat condenses an AsyncInfo into the history/SSE shape. A nil
// info (empty-wave commit) reports an empty buffer.
func asyncRoundStat(info *AsyncInfo, waves int) *AsyncRoundStat {
	st := &AsyncRoundStat{Waves: waves}
	if info == nil {
		return st
	}
	st.Buffer = len(info.Stale)
	st.Partial = info.Partial
	st.MaxStale = 0
	sum := 0
	for _, s := range info.Stale {
		sum += s
		st.MaxStale = max(st.MaxStale, s)
	}
	if len(info.Stale) > 0 {
		st.MeanStale = float64(sum) / float64(len(info.Stale))
	}
	st.StaleHist = append([]int(nil), info.Hist...)
	return st
}
