package campaign

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"avgloc/internal/core"
	"avgloc/internal/fit"
	"avgloc/internal/resultstore"
	"avgloc/internal/scenario"
)

// outcomeWith builds a synthetic executed outcome: one row per (n, value)
// pair with the value stored under every measure.
func outcomeWith(ns []int, vals []float64) *scenario.Outcome {
	out := &scenario.Outcome{}
	for i, n := range ns {
		out.Rows = append(out.Rows, scenario.Row{
			Nodes: n,
			Edges: 2 * n,
			Report: &core.Report{
				NodeAvg:   vals[i],
				EdgeAvg:   vals[i],
				WorstMean: vals[i],
			},
		})
	}
	return out
}

func sizes() []int { return []int{256, 1024, 4096, 16384, 65536} }

func TestValidateRejectsBadCampaigns(t *testing.T) {
	good := scenario.Spec{Graph: "cycle", Algorithm: "mis/luby"}
	cases := []struct {
		name string
		c    Campaign
	}{
		{"empty", Campaign{}},
		{"unnamed scenario", Campaign{Scenarios: []Item{{Spec: good}}}},
		{"duplicate names", Campaign{Scenarios: []Item{{Name: "a", Spec: good}, {Name: "a", Spec: good}}}},
		{"bad spec", Campaign{Scenarios: []Item{{Name: "a", Spec: scenario.Spec{Graph: "nope", Algorithm: "mis/luby"}}}}},
		{"bad measure", Campaign{Scenarios: []Item{{Name: "a", Spec: good,
			Hypothesis: &Hypothesis{Measure: "latency", Expect: fit.Const}}}}},
		{"empty hypothesis", Campaign{Scenarios: []Item{{Name: "a", Spec: good,
			Hypothesis: &Hypothesis{Measure: MeasureNodeAvg}}}}},
		{"bad class", Campaign{Scenarios: []Item{{Name: "a", Spec: good,
			Hypothesis: &Hypothesis{Measure: MeasureNodeAvg, Expect: "exp"}}}}},
		{"self compare", Campaign{Scenarios: []Item{{Name: "a", Spec: good,
			Hypothesis: &Hypothesis{Measure: MeasureNodeAvg, CompareTo: "a"}}}}},
		{"unknown compare", Campaign{Scenarios: []Item{{Name: "a", Spec: good,
			Hypothesis: &Hypothesis{Measure: MeasureNodeAvg, CompareTo: "b"}}}}},
		{"bad op", Campaign{Scenarios: []Item{{Name: "a", Spec: good,
			Hypothesis: &Hypothesis{Measure: MeasureNodeAvg, Expect: fit.Const, Op: "lt"}}}}},
		{"compare_measure without compare_to", Campaign{Scenarios: []Item{{Name: "a", Spec: good,
			Hypothesis: &Hypothesis{Measure: MeasureNodeAvg, Expect: fit.Const, CompareMeasure: MeasureEdgeAvg}}}}},
		{"bad compare_measure", Campaign{Scenarios: []Item{
			{Name: "a", Spec: good, Hypothesis: &Hypothesis{Measure: MeasureNodeAvg, CompareTo: "b", CompareMeasure: "latency"}},
			{Name: "b", Spec: good},
		}}},
		{"negative ratio", Campaign{Scenarios: []Item{{Name: "a", Spec: good,
			Hypothesis: &Hypothesis{Measure: MeasureNodeAvg, Expect: fit.Const, Ratio: -1}}}}},
	}
	for _, c := range cases {
		if err := c.c.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	over := Campaign{}
	for i := 0; i <= MaxScenarios; i++ {
		over.Scenarios = append(over.Scenarios, Item{Name: strings.Repeat("x", i+1), Spec: good})
	}
	if err := over.Validate(); err == nil {
		t.Error("oversized campaign accepted")
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	for _, doc := range []string{
		`{"scenarios":[{"name":"a","spec":{"graph":"cycle","algorithm":"mis/luby"},"hypotesis":{}}]}`,
		// A valid campaign followed by the start of a second document, or
		// by a stray closing brace (json.Decoder.More reports no more
		// values there, so the check must be Token returning io.EOF).
		`{"scenarios":[{"name":"a","spec":{"graph":"cycle","algorithm":"mis/luby"}}]}{"scenarios":"garbage"`,
		`{"scenarios":[{"name":"a","spec":{"graph":"cycle","algorithm":"mis/luby"}}]}}`,
	} {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Fatalf("accepted %s", doc)
		}
	}
	c, err := Parse([]byte(`{"name":"ok","scenarios":[{"name":"a","spec":{"graph":"cycle","algorithm":"mis/luby"}}]}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "ok" || len(c.Scenarios) != 1 {
		t.Fatalf("parsed %+v", c)
	}
}

// evalCampaign wires a one- or two-item campaign through Evaluate with
// synthetic outcomes.
func evalCampaign(t *testing.T, h *Hypothesis, a, b *scenario.Outcome) ScenarioResult {
	t.Helper()
	c := &Campaign{Scenarios: []Item{{Name: "a", Hypothesis: h}}}
	runs := []ScenarioRun{{Index: 0, Name: "a", Outcome: a}}
	if b != nil {
		c.Scenarios = append(c.Scenarios, Item{Name: "b"})
		runs = append(runs, ScenarioRun{Index: 1, Name: "b", Outcome: b})
	}
	rep, err := Evaluate(c, runs)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Scenarios[0]
}

func TestEvaluateExpectVerdicts(t *testing.T) {
	ns := sizes()
	flat := []float64{5, 5.05, 4.95, 5.02, 4.98}
	growing := make([]float64, len(ns))
	for i, n := range ns {
		growing[i] = 2 * math.Log2(float64(n))
	}

	// A flat measurement confirms an O(log* n) upper-bound claim.
	res := evalCampaign(t, &Hypothesis{Measure: MeasureNodeAvg, Expect: fit.LogStar}, outcomeWith(ns, flat), nil)
	if res.Verdict != Confirmed {
		t.Fatalf("flat data vs logstar: %s (%s)", res.Verdict, res.Detail)
	}
	if res.Fit == nil || res.Fit.Best != fit.Const {
		t.Fatalf("fit not attached or wrong: %+v", res.Fit)
	}

	// Logarithmic growth rejects an O(1) claim.
	res = evalCampaign(t, &Hypothesis{Measure: MeasureWorst, Expect: fit.Const}, outcomeWith(ns, growing), nil)
	if res.Verdict != Rejected {
		t.Fatalf("log data vs const: %s (%s)", res.Verdict, res.Detail)
	}

	// Too few rows: the gate refuses.
	res = evalCampaign(t, &Hypothesis{Measure: MeasureNodeAvg, Expect: fit.Const},
		outcomeWith([]int{256, 1024}, []float64{5, 5}), nil)
	if res.Verdict != Inconclusive {
		t.Fatalf("2 rows: %s (%s)", res.Verdict, res.Detail)
	}

	// A failed scenario is inconclusive, never confirmed.
	c := &Campaign{Scenarios: []Item{{Name: "a", Hypothesis: &Hypothesis{Measure: MeasureNodeAvg, Expect: fit.Const}}}}
	rep, err := Evaluate(c, []ScenarioRun{{Index: 0, Name: "a", Err: "boom"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scenarios[0].Verdict != Inconclusive || rep.Inconclusive != 1 {
		t.Fatalf("failed scenario: %+v", rep.Scenarios[0])
	}
}

func TestEvaluateCompareVerdicts(t *testing.T) {
	ns := sizes()
	low := []float64{1, 1, 1, 1, 1}
	high := []float64{4, 4, 4, 4, 4}

	// rand-vs-det shape: the low series is below the high one.
	h := &Hypothesis{Measure: MeasureEdgeAvg, CompareTo: "b"}
	res := evalCampaign(t, h, outcomeWith(ns, low), outcomeWith(ns, high))
	if res.Verdict != Confirmed {
		t.Fatalf("low<=high: %s (%s)", res.Verdict, res.Detail)
	}

	res = evalCampaign(t, h, outcomeWith(ns, high), outcomeWith(ns, low))
	if res.Verdict != Rejected {
		t.Fatalf("high<=low: %s (%s)", res.Verdict, res.Detail)
	}

	// ge with an explicit threshold.
	hge := &Hypothesis{Measure: MeasureNodeAvg, CompareTo: "b", Op: "ge", Ratio: 2}
	res = evalCampaign(t, hge, outcomeWith(ns, high), outcomeWith(ns, low))
	if res.Verdict != Confirmed {
		t.Fatalf("high>=2*low: %s (%s)", res.Verdict, res.Detail)
	}

	// Misaligned sweeps refuse a verdict.
	res = evalCampaign(t, h, outcomeWith(ns, low), outcomeWith(ns[:3], high[:3]))
	if res.Verdict != Inconclusive {
		t.Fatalf("misaligned rows: %s (%s)", res.Verdict, res.Detail)
	}

	// Equal row counts with different realized sizes are not aligned
	// either: a per-row ratio of n=256 against n=512 means nothing.
	shifted := []int{512, 1024, 4096, 16384, 65536}
	res = evalCampaign(t, h, outcomeWith(ns, low), outcomeWith(shifted, high))
	if res.Verdict != Inconclusive || !strings.Contains(res.Detail, "not aligned") {
		t.Fatalf("size-shifted rows: %s (%s)", res.Verdict, res.Detail)
	}

	// A conjunction takes the worse verdict: fit confirms, compare rejects.
	both := &Hypothesis{Measure: MeasureNodeAvg, Expect: fit.Log, CompareTo: "b"}
	res = evalCampaign(t, both, outcomeWith(ns, high), outcomeWith(ns, low))
	if res.Verdict != Rejected {
		t.Fatalf("conjunction: %s (%s)", res.Verdict, res.Detail)
	}
}

// TestEvaluateCompareMeasure: compare_measure reads a different column on
// the compared side, expressing same-run gaps like node-avg ≥ edge-avg.
func TestEvaluateCompareMeasure(t *testing.T) {
	ns := sizes()
	a := outcomeWith(ns, []float64{6, 6, 6, 6, 6})
	b := outcomeWith(ns, []float64{0, 0, 0, 0, 0})
	for i := range b.Rows {
		b.Rows[i].Report.NodeAvg = 9 // would flip the verdict if read
		b.Rows[i].Report.EdgeAvg = 2
	}
	h := &Hypothesis{Measure: MeasureNodeAvg, CompareTo: "b", CompareMeasure: MeasureEdgeAvg, Op: "ge", Ratio: 2}
	res := evalCampaign(t, h, a, b)
	if res.Verdict != Confirmed {
		t.Fatalf("node vs edge gap: %s (%s)", res.Verdict, res.Detail)
	}
	if !strings.Contains(res.Detail, "edge_avg") {
		t.Fatalf("detail does not name the compared measure: %s", res.Detail)
	}
}

func smallCampaign() *Campaign {
	sweep := &scenario.Sweep{Param: "n", Values: []float64{32, 48, 64, 96, 128}}
	return &Campaign{
		Name: "test",
		Scenarios: []Item{
			{
				Name: "luby",
				Spec: scenario.Spec{Graph: "cycle", Algorithm: "mis/luby", Trials: 2, Seed: 7, Sweep: sweep},
				Hypothesis: &Hypothesis{
					Measure: MeasureNodeAvg, Expect: fit.Log, CompareTo: "det", Op: "le", Ratio: 10,
				},
			},
			{
				Name: "det",
				Spec: scenario.Spec{Graph: "cycle", Algorithm: "mis/det-coloring", Trials: 1, Seed: 7, Sweep: sweep},
			},
			{
				// Identical spec to "luby": must dedupe onto one execution.
				Name: "luby-dup",
				Spec: scenario.Spec{Graph: "cycle", Algorithm: "mis/luby", Trials: 2, Seed: 7, Sweep: sweep},
			},
		},
	}
}

// TestRunDedupesAndCaches: equal specs execute once per campaign, and a
// second run against the same store is served entirely from cache.
func TestRunDedupesAndCaches(t *testing.T) {
	store, err := resultstore.New(16, "")
	if err != nil {
		t.Fatal(err)
	}
	c := smallCampaign()
	rep, err := Run(c, Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if store.Stats().Puts != 2 {
		t.Fatalf("store puts %d, want 2 (luby-dup must dedupe)", store.Stats().Puts)
	}
	if rep.Scenarios[0].Key != rep.Scenarios[2].Key {
		t.Fatal("duplicate scenarios got different keys")
	}
	if rep.Confirmed != 1 || rep.Rejected != 0 {
		t.Fatalf("verdicts: %+v", rep)
	}
	for _, s := range rep.Scenarios {
		if s.Cached {
			t.Fatalf("first run marked cached: %+v", s)
		}
	}

	rep2, err := Run(c, Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rep2.Scenarios {
		if !s.Cached {
			t.Fatalf("second run missed the cache: %+v", s)
		}
	}
	if rep2.Confirmed != rep.Confirmed || rep2.Scenarios[0].Detail != rep.Scenarios[0].Detail {
		t.Fatal("cached run changed the verdicts")
	}
}

// TestRunByteIdenticalAcrossParallelism: the campaign report marshals
// byte-identically at every worker budget — the determinism contract the
// server's cache and the acceptance criteria rest on.
func TestRunByteIdenticalAcrossParallelism(t *testing.T) {
	c := smallCampaign()
	base, err := Run(c, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.MarshalStable()
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, 16, 64} {
		rep, err := Run(c, Options{Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		got, err := rep.MarshalStable()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("parallelism %d produced different report bytes:\n%s\nvs\n%s", par, got, want)
		}
	}
}

// TestRunStreamsEventsInOrder: OnScenario fires once per scenario, in
// campaign order, with keys and outcomes attached.
func TestRunStreamsEventsInOrder(t *testing.T) {
	var events []ScenarioRun
	c := smallCampaign()
	if _, err := Run(c, Options{Parallelism: 4, OnScenario: func(r ScenarioRun) {
		events = append(events, r)
	}}); err != nil {
		t.Fatal(err)
	}
	if len(events) != len(c.Scenarios) {
		t.Fatalf("%d events for %d scenarios", len(events), len(c.Scenarios))
	}
	for i, e := range events {
		if e.Index != i || e.Name != c.Scenarios[i].Name {
			t.Fatalf("event %d out of order: %+v", i, e)
		}
		if e.Err != "" || e.Outcome == nil || e.Key == "" {
			t.Fatalf("event %d incomplete: %+v", i, e)
		}
	}
}

// TestRunRecordsScenarioErrors: a scenario that fails at run time (the
// registry rejects the built graph) yields an error entry and an
// inconclusive verdict instead of failing the whole campaign.
func TestRunRecordsScenarioErrors(t *testing.T) {
	c := &Campaign{Scenarios: []Item{
		{
			// regular requires n*d even; n=33,d=3 normalizes but fails to build.
			Name:       "bad",
			Spec:       scenario.Spec{Graph: "regular", Params: map[string]float64{"n": 33, "d": 3}, Algorithm: "mis/luby"},
			Hypothesis: &Hypothesis{Measure: MeasureNodeAvg, Expect: fit.Const},
		},
		{
			Name: "good",
			Spec: scenario.Spec{Graph: "cycle", Params: map[string]float64{"n": 32}, Algorithm: "mis/luby", Trials: 1},
		},
	}}
	rep, err := Run(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scenarios[0].Error == "" || rep.Scenarios[0].Verdict != Inconclusive {
		t.Fatalf("bad scenario: %+v", rep.Scenarios[0])
	}
	if rep.Scenarios[1].Error != "" || rep.Scenarios[1].Rows != 1 {
		t.Fatalf("good scenario: %+v", rep.Scenarios[1])
	}
}

func TestReportString(t *testing.T) {
	rep := &Report{
		Name:      "demo",
		Confirmed: 1,
		Scenarios: []ScenarioResult{
			{Name: "a", Verdict: Confirmed, Detail: "ok"},
			{Name: "b"},
			{Name: "c", Error: "boom"},
		},
	}
	s := rep.String()
	for _, want := range []string{"campaign demo: 1 confirmed", "CONFIRMED", "error: boom"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table missing %q:\n%s", want, s)
		}
	}
}

func TestMeasureValue(t *testing.T) {
	rep := &core.Report{NodeAvg: 1.5, EdgeAvg: 2.5, WorstMean: 9}
	for _, tc := range []struct {
		measure string
		want    float64
	}{{MeasureNodeAvg, 1.5}, {MeasureEdgeAvg, 2.5}, {MeasureWorst, 9}} {
		if got := measureValue(rep, tc.measure); got != tc.want {
			t.Fatalf("measureValue(%s) = %g, want %g", tc.measure, got, tc.want)
		}
	}
}
