package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"avgloc/internal/core"
	"avgloc/internal/graph"
	"avgloc/internal/graphstore"
	"avgloc/internal/registry"
	"avgloc/internal/runtime"
	"avgloc/internal/scenario"
	"avgloc/internal/seedmix"
)

var update = flag.Bool("update", false, "rewrite the campaign goldens under testdata")

// TestPaperCampaign runs the shipped campaigns/paper.json at its quick
// scale and pins the acceptance verdicts: the E1 ruling-set node-averaged
// O(log* n) hypothesis and the E3-vs-E4 rand/det matching comparison must
// come out CONFIRMED, and no paper claim may be REJECTED. It also pins the
// report's bytes and each scenario's engine work against
// testdata/paper.golden (see runPinnedCampaign).
func TestPaperCampaign(t *testing.T) {
	rep := runPinnedCampaign(t, "paper.json", "paper.golden")
	if rep.Rejected != 0 {
		t.Fatalf("paper claims rejected:\n%s", rep.String())
	}
	byName := map[string]ScenarioResult{}
	for _, s := range rep.Scenarios {
		byName[s.Name] = s
	}
	e1 := byName["e1-rulingset-rand22"]
	if e1.Verdict != Confirmed {
		t.Fatalf("E1 ruling-set O(log* n) hypothesis: %s (%s)", e1.Verdict, e1.Detail)
	}
	if e1.Fit == nil || !e1.Fit.Conclusive {
		t.Fatalf("E1 fit not conclusive: %+v", e1.Fit)
	}
	e3 := byName["e3-rand-matching"]
	if e3.Verdict != Confirmed {
		t.Fatalf("E3-vs-E4 rand/det matching comparison: %s (%s)", e3.Verdict, e3.Detail)
	}
	// The two e9 items share one spec and must have deduped onto one key.
	if byName["e9-kmw-matching-node"].Key != byName["e9-kmw-matching-edge"].Key {
		t.Fatal("identical e9 specs did not share a cache key")
	}
	// Every within_twin claim — the paper's closed forms, held against the
	// analytical twin catalogue — must come out CONFIRMED with its twin
	// block attached.
	for _, name := range []string{"e1-rulingset-rand22", "e10-det-cycle-mis", "e10-rand-cycle-mis", "e14-sinkless-rand"} {
		s := byName[name]
		if s.Verdict != Confirmed {
			t.Errorf("%s within_twin claim: %s (%s)", name, s.Verdict, s.Detail)
		}
		if !strings.Contains(s.Detail, "within_twin ratios") {
			t.Errorf("%s verdict detail carries no within_twin claim: %s", name, s.Detail)
		}
		if s.Twin == nil || len(s.Twin.Rows) == 0 {
			t.Errorf("%s has no twin block", name)
		}
	}
}

// TestExperimentsCampaign runs the shipped campaigns/experiments.json, the
// E2, E3, E5, E6 and E13 claims that a scenario can express, and pins its
// report and engine work against testdata/experiments.golden. The verdicts
// are pinned as they fall, not required to be CONFIRMED: the golden's
// report sha256 moves when any verdict, fit or measured row does.
func TestExperimentsCampaign(t *testing.T) {
	runPinnedCampaign(t, "experiments.json", "experiments.golden")
}

// runPinnedCampaign runs campaigns/<file> and compares the report's
// MarshalStable sha256 and, per scenario, the total messages and
// node-rounds (Σ over trials and nodes of halt round + 1) with
// testdata/<golden>. The work counters come from a sequential replay of
// every row through core.MeasureRange with a counting runner; the replayed
// rows must equal the campaign's outcome rows, so the counters describe
// exactly the runs behind the report.
func runPinnedCampaign(t *testing.T, file, golden string) *Report {
	t.Helper()
	if testing.Short() {
		t.Skip("runs a full quick-scale campaign")
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "campaigns", file))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	outcomes := make([]*scenario.Outcome, len(c.Scenarios))
	rep, err := Run(c, Options{Parallelism: 4, OnScenario: func(r ScenarioRun) {
		outcomes[r.Index] = r.Outcome
	}})
	if err != nil {
		t.Fatal(err)
	}
	stable, err := rep.MarshalStable()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(stable)
	var b strings.Builder
	fmt.Fprintf(&b, "report sha256 %s\n", hex.EncodeToString(sum[:]))
	for i, it := range c.Scenarios {
		messages, nodeRounds := replayScenario(t, &it.Spec, outcomes[i])
		fmt.Fprintf(&b, "%s messages %d node_rounds %d\n", it.Name, messages, nodeRounds)
	}
	got := b.String()
	golden = filepath.Join("testdata", golden)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (rerun with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("%s drifted from %s (rerun with -update if intended):\ngot:\n%s\nwant:\n%s\nverdicts:\n%s",
			file, golden, got, want, rep.String())
	}
	return rep
}

// countingRunner tallies the messages and node-rounds of every run.
type countingRunner struct {
	core.Runner
	messages, nodeRounds int64
}

func (r *countingRunner) Run(g *graph.Graph, assignment []int64, seed uint64) (*runtime.Result, error) {
	res, err := r.Runner.Run(g, assignment, seed)
	if err != nil {
		return nil, err
	}
	r.messages += res.Messages
	for _, h := range res.NodeHalt {
		if h < 0 {
			h = int32(res.Rounds)
		}
		r.nodeRounds += int64(h) + 1
	}
	return res, nil
}

// replayScenario re-measures every row of spec with a counting runner and
// checks the rows against want. The row graph streams and measurement
// seeds copy internal/scenario's derivations; a drift in either copy shows
// up as a row mismatch.
func replayScenario(t *testing.T, spec *scenario.Spec, want *scenario.Outcome) (messages, nodeRounds int64) {
	t.Helper()
	n, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	entry, err := registry.FindAlgorithm(n.Algorithm)
	if err != nil {
		t.Fatal(err)
	}
	params := []registry.Values{n.Params}
	if n.Sweep != nil {
		params = params[:0]
		for _, x := range n.Sweep.Values {
			v := n.Params.Clone()
			v[n.Sweep.Param] = x
			params = append(params, v)
		}
	}
	rows := make([]scenario.Row, len(params))
	for i, p := range params {
		g, err := graphstore.Shared().Get(context.Background(), n.Graph, p,
			n.Seed, 0xA11CE5+uint64(i)*0x9E3779B97F4A7C15)
		if err != nil {
			t.Fatal(err)
		}
		runner, problem := entry.New()
		counted := &countingRunner{Runner: runner}
		outs, err := core.MeasureRange(g, problem, counted,
			core.MeasureOptions{Seed: seedmix.Derive(n.Seed, 0x524F57, i)}, 0, n.Trials)
		if err != nil {
			t.Fatalf("%s row %d: %v", n.Algorithm, i, err)
		}
		rows[i] = scenario.Row{Params: p, Nodes: g.N(), Edges: g.M(),
			Report: core.MergeTrials(core.Meta(g, problem, runner), outs)}
		messages += counted.messages
		nodeRounds += counted.nodeRounds
	}
	gotRows, _ := json.Marshal(rows)
	wantRows, _ := json.Marshal(want.Rows)
	if string(gotRows) != string(wantRows) {
		t.Fatalf("%s: replayed rows differ from the campaign outcome", n.Algorithm)
	}
	return messages, nodeRounds
}
