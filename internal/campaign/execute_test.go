package campaign

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"

	"avgloc/internal/resultstore"
	"avgloc/internal/scenario"
)

// TestExecuteHookIsTransparent: plugging a custom executor (the fleet
// coordinator's slot) into Options.Execute must not change the report
// bytes when the executor computes the same outcomes, and it must receive
// exactly the deduped unique specs.
func TestExecuteHookIsTransparent(t *testing.T) {
	c := &Campaign{
		Name: "exec-hook",
		Scenarios: []Item{
			{Name: "a", Spec: scenario.Spec{Graph: "cycle", Params: map[string]float64{"n": 24}, Algorithm: "mis/luby", Trials: 2, Seed: 3},
				Hypothesis: &Hypothesis{Measure: MeasureNodeAvg, Expect: "log"}},
			{Name: "b", Spec: scenario.Spec{Graph: "cycle", Params: map[string]float64{"n": 24}, Algorithm: "mis/luby", Trials: 2, Seed: 3}},
			{Name: "c", Spec: scenario.Spec{Graph: "path", Params: map[string]float64{"n": 24}, Algorithm: "mis/luby", Trials: 2, Seed: 3}},
		},
	}
	want, err := Run(c, Options{Parallelism: 2})
	if err != nil {
		t.Fatalf("default Run: %v", err)
	}
	wantBytes, _ := want.MarshalStable()

	var calls atomic.Int64
	got, err := Run(c, Options{
		Parallelism: 2,
		Execute: func(spec *scenario.Spec, opt scenario.Options) (*scenario.Outcome, bool, error) {
			calls.Add(1)
			out, err := scenario.Run(spec, opt)
			return out, false, err
		},
	})
	if err != nil {
		t.Fatalf("Run with Execute hook: %v", err)
	}
	gotBytes, _ := got.MarshalStable()
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("Execute hook changed the report\nhook:\n%s\ndefault:\n%s", gotBytes, wantBytes)
	}
	// "a" and "b" share a cache key, so the hook sees 2 unique specs.
	if n := calls.Load(); n != 2 {
		t.Fatalf("Execute called %d times, want 2 (intra-campaign dedupe)", n)
	}
}

// TestCancelledContextFailsScenarios: a cancelled Options.Ctx stops the
// campaign — scenarios report the context error instead of executing.
func TestCancelledContextFailsScenarios(t *testing.T) {
	c := &Campaign{
		Name: "cancelled",
		Scenarios: []Item{
			{Name: "a", Spec: scenario.Spec{Graph: "cycle", Params: map[string]float64{"n": 24}, Algorithm: "mis/luby", Trials: 2, Seed: 3},
				Hypothesis: &Hypothesis{Measure: MeasureNodeAvg, Expect: "log"}},
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(c, Options{Parallelism: 1, Ctx: ctx})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	res := rep.Scenarios[0]
	if res.Error != context.Canceled.Error() {
		t.Fatalf("error = %q, want %q", res.Error, context.Canceled.Error())
	}
	if res.Verdict != Inconclusive {
		t.Fatalf("verdict = %q, want INCONCLUSIVE", res.Verdict)
	}
}

// TestExecuteReportsCached: an Execute that answers from a cache of its own
// (avgserve's job table) sets Cached on the OnScenario events and on the
// report's scenarios. A Store, when set, keeps fronting Execute: it is
// written after each unique run and serves the repeat without calling
// Execute again.
func TestExecuteReportsCached(t *testing.T) {
	c := &Campaign{
		Name: "exec-cached",
		Scenarios: []Item{
			{Name: "a", Spec: scenario.Spec{Graph: "cycle", Params: map[string]float64{"n": 24}, Algorithm: "mis/luby", Trials: 2, Seed: 3}},
			{Name: "b", Spec: scenario.Spec{Graph: "path", Params: map[string]float64{"n": 24}, Algorithm: "mis/luby", Trials: 2, Seed: 3}},
		},
	}
	var calls atomic.Int64
	cachedExec := func(spec *scenario.Spec, opt scenario.Options) (*scenario.Outcome, bool, error) {
		calls.Add(1)
		out, err := scenario.Run(spec, opt)
		return out, true, err
	}
	run := func(store *resultstore.Store) ([]ScenarioRun, *Report) {
		t.Helper()
		var events []ScenarioRun
		rep, err := Run(c, Options{Parallelism: 2, Store: store, Execute: cachedExec,
			OnScenario: func(r ScenarioRun) { events = append(events, r) }})
		if err != nil {
			t.Fatal(err)
		}
		return events, rep
	}

	events, rep := run(nil)
	for i := range c.Scenarios {
		if !events[i].Cached || !rep.Scenarios[i].Cached {
			t.Fatalf("scenario %d: event cached %v, report cached %v; want both true",
				i, events[i].Cached, rep.Scenarios[i].Cached)
		}
	}

	store, err := resultstore.New(16, "")
	if err != nil {
		t.Fatal(err)
	}
	calls.Store(0)
	run(store)
	if st := store.Stats(); st.Puts != 2 || calls.Load() != 2 {
		t.Fatalf("first run with Store: %d puts, %d Execute calls; want 2 and 2", st.Puts, calls.Load())
	}
	events, _ = run(store)
	if calls.Load() != 2 {
		t.Fatalf("repeat with Store called Execute %d more times, want 0", calls.Load()-2)
	}
	if st := store.Stats(); st.Hits != 2 || !events[0].Cached || !events[1].Cached {
		t.Fatalf("repeat with Store: %d hits, events %+v; want 2 cached hits", st.Hits, events)
	}
}
