package fl

import (
	"bytes"
	"encoding/json"
	"testing"

	"fedwcm/internal/obs"
	"fedwcm/internal/scenario"
)

// TestHistoryIdenticalWithMetricsEnabled is the golden regression behind the
// observability layer's core promise: instrumentation observes the run, it
// never steers it. The same seeded environment must produce byte-identical
// history JSON whether metrics/tracing are fully enabled, explicitly no-op,
// or left at the process default.
func TestHistoryIdenticalWithMetricsEnabled(t *testing.T) {
	run := func(configure func(*Env)) []byte {
		env := testEnv(11, Config{Rounds: 4, EvalEvery: 2, Workers: 2}, 4, 6, 0.5, 1)
		if configure != nil {
			configure(env)
		}
		h := Run(env, &sgdMethod{})
		b, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	baseline := run(func(env *Env) {
		env.Metrics = NewRunMetrics(nil) // explicit no-op bundle
	})
	enabled := run(func(env *Env) {
		env.Metrics = NewRunMetrics(obs.NewRegistry())
		env.Tracer = obs.NewTracer(128)
		env.TraceID = "golden-trace"
	})
	defaulted := run(nil) // nil Metrics → DefaultRunMetrics()

	if !bytes.Equal(baseline, enabled) {
		t.Errorf("history diverged with metrics+tracing enabled:\nno-op: %s\nenabled: %s", baseline, enabled)
	}
	if !bytes.Equal(baseline, defaulted) {
		t.Errorf("history diverged under default registry:\nno-op: %s\ndefault: %s", baseline, defaulted)
	}
}

// countingMethod counts server aggregations, so a test can tell rounds that
// aggregated from rounds nobody reported in.
type countingMethod struct {
	sgdMethod
	aggs int
}

func (m *countingMethod) Aggregate(round int, global []float64, results []*ClientResult) {
	m.aggs++
	m.sgdMethod.Aggregate(round, global, results)
}

// TestRunMetricsPopulated sanity-checks that an instrumented run actually
// moves its own series (the inverse guard: metrics are not silently no-op
// when a registry IS provided), that every committed round — empty ones
// included — records exactly one rounds-counter tick, one round-seconds
// observation and one fl.round span, and that the fedwcm_fl_async_*
// families move on async runs only.
func TestRunMetricsPopulated(t *testing.T) {
	outage := &scenario.Scenario{Availability: &scenario.Availability{OutageProb: 0.5, OutageFrac: 1}}
	for _, tc := range []struct {
		name  string
		cfg   Config
		empty bool // the fixture must mix empty and aggregating rounds
	}{
		{"sync", Config{Rounds: 3, EvalEvery: 1, Workers: 2}, false},
		{"sync-empty-round", Config{Rounds: 6, EvalEvery: 1, Workers: 2, Scenario: outage}, true},
		{"async-empty-round", Config{Rounds: 6, EvalEvery: 1, Workers: 2, SampleClients: 4, Scenario: outage,
			Async: &AsyncConfig{K: 4, Staleness: StalePoly}}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tracer := obs.NewTracer(256)
			env := testEnv(11, tc.cfg, 4, 6, 0.5, 1)
			env.Metrics = NewRunMetrics(obs.NewRegistry())
			env.Tracer = tracer
			env.TraceID = "populated"
			m := &countingMethod{}
			Run(env, m)

			rounds := tc.cfg.Rounds
			if tc.empty && (m.aggs == 0 || m.aggs >= rounds) {
				t.Fatalf("fixture aggregated in %d of %d rounds; want empty and non-empty rounds", m.aggs, rounds)
			}
			mx := env.Metrics
			if got := mx.Rounds.Value(); got != uint64(rounds) {
				t.Errorf("rounds counter %d, want %d", got, rounds)
			}
			if got := mx.RoundSeconds.Count(); got != uint64(rounds) {
				t.Errorf("round histogram count %d, want %d", got, rounds)
			}
			spans := tracer.Collect("populated")
			if len(spans) != rounds {
				t.Errorf("round spans %d, want %d", len(spans), rounds)
			}
			for i, s := range spans {
				if s.Name != "fl.round" || s.Round != i+1 {
					t.Errorf("span %d is %s round %d, want fl.round round %d", i, s.Name, s.Round, i+1)
				}
			}
			if mx.ClientsTrained.Value() == 0 {
				t.Error("client step counter never moved")
			}
			if mx.ClientSeconds.Count() == 0 {
				t.Error("client step histogram never observed")
			}
			a := mx.AsyncMetrics
			moved := map[string]bool{
				"aggregations": a.AsyncAggs.Value() != 0,
				"events":       a.AsyncEvents.Value() != 0,
				"waves":        a.AsyncWaves.Value() != 0,
				"virtual_time": a.AsyncClock.Value() != 0,
				"staleness":    a.AsyncStaleness.Count() != 0,
			}
			async := tc.cfg.Async != nil
			for name, ok := range moved {
				if ok != async {
					t.Errorf("fedwcm_fl_async %s moved=%v on an async=%v run", name, ok, async)
				}
			}
			if !async && (a.AsyncPartial.Value() != 0 || a.AsyncBufferFill.Value() != 0) {
				t.Error("fedwcm_fl_async partial/buffer_fill moved on a sync run")
			}
		})
	}
}
