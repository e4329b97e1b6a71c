package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"avgloc/internal/core"
)

func mustHash(t *testing.T, s *Spec) string {
	t.Helper()
	h, err := s.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestHashStableAcrossFieldOrderings parses the same scenario from JSON
// documents with different field and param orderings and checks the
// canonical hash agrees.
func TestHashStableAcrossFieldOrderings(t *testing.T) {
	docs := []string{
		`{"graph":"regular","params":{"n":128,"d":4},"algorithm":"mis/luby","trials":3,"seed":7}`,
		`{"seed":7,"trials":3,"algorithm":"mis/luby","params":{"d":4,"n":128},"graph":"regular"}`,
		`{"algorithm":"mis/luby","graph":"regular","seed":7,"params":{"n":128,"d":4}}`,                     // trials omitted = default 3
		`{"graph":"regular","params":{"n":128,"d":4},"algorithm":"mis/luby","seed":991,"name":"labelled"}`, // seed+name excluded from hash
	}
	var want string
	for i, doc := range docs {
		var s Spec
		if err := json.Unmarshal([]byte(doc), &s); err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		h := mustHash(t, &s)
		if i == 0 {
			want = h
			continue
		}
		if h != want {
			t.Fatalf("doc %d hashes to %s, doc 0 to %s", i, h, want)
		}
	}
}

func TestHashSeparatesScenarios(t *testing.T) {
	base := Spec{Graph: "regular", Params: map[string]float64{"n": 128, "d": 4}, Algorithm: "mis/luby", Seed: 7}
	h0 := mustHash(t, &base)

	alg := base
	alg.Algorithm = "mis/ghaffari"
	if mustHash(t, &alg) == h0 {
		t.Fatal("different algorithms hash equal")
	}
	par := base
	par.Params = map[string]float64{"n": 256, "d": 4}
	if mustHash(t, &par) == h0 {
		t.Fatal("different params hash equal")
	}
	tr := base
	tr.Trials = 5
	if mustHash(t, &tr) == h0 {
		t.Fatal("different trial counts hash equal")
	}
	sw := base
	sw.Sweep = &Sweep{Param: "n", Values: []float64{64, 128}}
	if mustHash(t, &sw) == h0 {
		t.Fatal("sweep ignored by hash")
	}

	// The Name label is cleared on Normalize, so cached outcomes cannot
	// leak one client's label to another submitting the same scenario.
	labelled := base
	labelled.Name = "private-label"
	norm, err := labelled.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Name != "" {
		t.Fatalf("Normalize kept the name label %q", norm.Name)
	}

	// Seed changes the key but not the hash.
	sd := base
	sd.Seed = 8
	if mustHash(t, &sd) != h0 {
		t.Fatal("seed changed the content hash")
	}
	k0, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	k1, err := sd.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k0 == k1 {
		t.Fatal("different seeds share a cache key")
	}
}

func TestNormalizeRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{Algorithm: "mis/luby"},                  // no graph
		{Graph: "cycle"},                         // no algorithm
		{Graph: "nope", Algorithm: "mis/luby"},   // unknown family
		{Graph: "cycle", Algorithm: "nope/nope"}, // unknown algorithm
		{Graph: "cycle", Params: map[string]float64{"q": 1}, Algorithm: "mis/luby"},
		{Graph: "cycle", Algorithm: "mis/luby", Sweep: &Sweep{Param: "n"}},                       // empty sweep
		{Graph: "cycle", Algorithm: "mis/luby", Sweep: &Sweep{Param: "n", Values: []float64{2}}}, // below min
		{Graph: "cycle", Algorithm: "mis/luby", Trials: MaxTrials + 1},                           // worker-hogging trials
		{Graph: "cycle", Algorithm: "mis/luby", Sweep: &Sweep{Param: "n", Values: make([]float64, MaxSweepValues+1)}},
	}
	for i, s := range bad {
		if _, err := s.Normalize(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

// TestRunDeterministic runs the same scenario twice and checks the stable
// marshalled outcomes are byte-identical, including across parallelism
// levels — the property the result cache is built on.
func TestRunDeterministic(t *testing.T) {
	spec := &Spec{
		Graph:     "regular",
		Params:    map[string]float64{"n": 64, "d": 4},
		Algorithm: "matching/randluby",
		Trials:    2,
		Seed:      13,
	}
	a, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	ab, err := a.MarshalStable()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.MarshalStable()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Fatalf("outcomes differ across runs/parallelism:\n%s\nvs\n%s", ab, bb)
	}
}

// TestHashPreambleBumped: every change to the execution semantics or the
// outcome rendering must move the content hash, or stale cached documents
// would be served for the new format. The constants are the v1 and v2
// hashes of this exact spec, computed on the respective pre-bump code (v2
// lacked Row.Nodes/Edges; v1 additionally shared one measurement seed
// across sweep rows).
func TestHashPreambleBumped(t *testing.T) {
	s := &Spec{Graph: "regular", Params: map[string]float64{"n": 128, "d": 4}, Algorithm: "mis/luby", Trials: 3, Seed: 7}
	old := map[string]string{
		"v1": "cedf6bd71f01554e9befdb45b81ce512b0bc0c779014256fc83b174bcb55a638",
		"v2": "a323dd9c47d4b8eb1b35d9751a5c96b8ba4179c733e8f31eedbd2f0834270c98",
	}
	h := mustHash(t, s)
	for version, stale := range old {
		if h == stale {
			t.Fatalf("content hash still matches scenario/%s; stale cached outcomes would be served for the current format", version)
		}
	}
}

// TestRowsCarryGraphSize: rows record the realized graph size, the x-axis
// the campaign layer fits growth classes against.
func TestRowsCarryGraphSize(t *testing.T) {
	spec := &Spec{
		Graph:     "cycle",
		Algorithm: "mis/luby",
		Trials:    1,
		Seed:      5,
		Sweep:     &Sweep{Param: "n", Values: []float64{32, 64}},
	}
	out, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{32, 64} {
		if out.Rows[i].Nodes != want || out.Rows[i].Edges != want {
			t.Fatalf("row %d size n=%d m=%d, want cycle n=m=%d", i, out.Rows[i].Nodes, out.Rows[i].Edges, want)
		}
	}
}

// TestSweepRowsDivergentRandomness is the regression test for the shared
// per-row measurement seed: two sweep rows with identical parameters on a
// deterministic graph family (cycles carry no generator randomness) must
// still measure different random trials. Pre-fix, every row received the
// unmodified master seed and the rows' reports were byte-identical.
func TestSweepRowsDivergentRandomness(t *testing.T) {
	spec := &Spec{
		Graph:     "cycle",
		Algorithm: "mis/luby",
		Trials:    3,
		Seed:      9,
		Sweep:     &Sweep{Param: "n", Values: []float64{64, 64}},
	}
	out, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(out.Rows))
	}
	a, err := json.Marshal(out.Rows[0].Report)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(out.Rows[1].Report)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Fatalf("rows with equal params reused identical trial randomness:\n%s", a)
	}
}

// TestRunByteIdenticalAcrossParallelism is the determinism contract of the
// concurrent row scheduler: a ≥8-row sweep marshals byte-identically at
// every worker budget, including budgets that split between rows and
// per-row trials.
func TestRunByteIdenticalAcrossParallelism(t *testing.T) {
	spec := &Spec{
		Graph:     "regular",
		Params:    map[string]float64{"d": 4},
		Algorithm: "mis/luby",
		Trials:    4,
		Seed:      21,
		Sweep:     &Sweep{Param: "n", Values: []float64{32, 40, 48, 56, 64, 72, 80, 88}},
	}
	base, err := Run(spec, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.MarshalStable()
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 3, 4, 8, 16, 64} {
		out, err := Run(spec, Options{Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		got, err := out.MarshalStable()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("parallelism %d produced different bytes than sequential", par)
		}
	}
}

// TestRunRowsConcurrent proves rows really execute concurrently: two jobs
// rendezvous — each waits for the other to have started — which can only
// complete when both run at once.
func TestRunRowsConcurrent(t *testing.T) {
	started := make([]chan struct{}, 2)
	for i := range started {
		started[i] = make(chan struct{})
	}
	err := core.ForEachSplit(2, 2, func(row, _ int) error {
		close(started[row])
		select {
		case <-started[1-row]:
			return nil
		case <-time.After(10 * time.Second):
			return fmt.Errorf("row %d never saw its peer start: rows are sequential", row)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunRowsBudgetSplit: the worker budget splits between row workers and
// per-row measurement parallelism, and never exceeds the total.
func TestRunRowsBudgetSplit(t *testing.T) {
	cases := []struct {
		rows, workers, wantPar int
	}{
		{8, 1, 1},   // one worker: rows run sequentially
		{2, 8, 4},   // 2 row workers × 4 trial workers
		{8, 8, 1},   // all budget to row fan-out
		{3, 8, 2},   // 3 row workers, 8/3 = 2 each
		{8, 0, 1},   // no budget = sequential
		{1, 16, 16}, // single row gets everything
	}
	for _, c := range cases {
		var mu sync.Mutex
		got := map[int]bool{}
		if err := core.ForEachSplit(c.rows, c.workers, func(_, measurePar int) error {
			mu.Lock()
			got[measurePar] = true
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || !got[c.wantPar] {
			t.Fatalf("rows=%d workers=%d: measure parallelism %v, want %d", c.rows, c.workers, got, c.wantPar)
		}
	}
}

// TestRunRowsFirstErrorWins: the lowest-indexed error is returned whatever
// the scheduling.
func TestRunRowsFirstErrorWins(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := core.ForEachSplit(8, workers, func(row, _ int) error {
			if row >= 2 {
				return fmt.Errorf("row %d failed", row)
			}
			return nil
		})
		if err == nil || err.Error() != "row 2 failed" {
			t.Fatalf("workers=%d: got %v, want row 2's error", workers, err)
		}
	}
}

func TestRunSweep(t *testing.T) {
	spec := &Spec{
		Graph:     "caterpillar",
		Params:    map[string]float64{"spine": 16},
		Algorithm: "mis/luby",
		Trials:    1,
		Seed:      3,
		Sweep:     &Sweep{Param: "n", Values: []float64{32, 64, 128}},
	}
	out, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(out.Rows))
	}
	for i, want := range []float64{32, 64, 128} {
		if out.Rows[i].Params["n"] != want {
			t.Fatalf("row %d swept n=%v, want %v", i, out.Rows[i].Params["n"], want)
		}
		if out.Rows[i].Report == nil || out.Rows[i].Report.Trials != 1 {
			t.Fatalf("row %d has no valid report", i)
		}
	}
}
