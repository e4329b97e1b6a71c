package main

import (
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"avgloc/internal/fleet"
	"avgloc/internal/obs"
	"avgloc/internal/scenario"
)

// syntheticArtifact builds a small fleet-shaped trace in memory: one run
// with two chunks, one of which is stolen after its first lease dies.
func syntheticArtifact(t testing.TB) string {
	t.Helper()
	var b strings.Builder
	tr := obs.NewTracer(&b, "fleet.campaign", obs.A("key", "deadbeef-s1"))
	run := tr.Span(nil, "fleet.run", obs.A("key", "deadbeef-s1"), obs.A("rows", 1))
	run.Event("chunk.queued", obs.A("chunk", "c0"), obs.A("row", 0), obs.A("lo", 0), obs.A("hi", 8))
	run.Event("chunk.queued", obs.A("chunk", "c1"), obs.A("row", 0), obs.A("lo", 8), obs.A("hi", 16))
	run.Event("chunk.lease", obs.A("chunk", "c0"), obs.A("worker", "w1"))
	run.Event("chunk.lease", obs.A("chunk", "c1"), obs.A("worker", "w2"))
	run.Event("chunk.complete", obs.A("chunk", "c1"), obs.A("worker", "w2"))
	run.Event("chunk.lost", obs.A("chunk", "c0"), obs.A("worker", "w1"))
	run.Event("chunk.requeue", obs.A("chunk", "c0"))
	run.Event("chunk.steal", obs.A("chunk", "c0"), obs.A("worker", "w2"))
	run.Event("chunk.complete", obs.A("chunk", "c0"), obs.A("worker", "w2"))
	m := run.Span("merge", obs.A("chunks", 2))
	m.End()
	run.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestReadTraceAndAnalyze(t *testing.T) {
	tr, err := readTrace(strings.NewReader(syntheticArtifact(t)))
	if err != nil {
		t.Fatal(err)
	}
	if tr.header.Name != "fleet.campaign" {
		t.Fatalf("header = %+v", tr.header)
	}
	if len(tr.spans) != 2 || len(tr.events) != 9 {
		t.Fatalf("spans=%d events=%d, want 2/9", len(tr.spans), len(tr.events))
	}

	a := analyze(tr)
	if a.Spans != 2 || a.Events != 9 {
		t.Fatalf("analysis counts: %+v", a)
	}
	if len(a.Roots) != 1 || a.Roots[0].Line.Name != "fleet.run" {
		t.Fatalf("roots = %+v", a.Roots)
	}
	if len(a.Roots[0].Children) != 1 || a.Roots[0].Children[0].Line.Name != "merge" {
		t.Fatalf("tree children = %+v", a.Roots[0].Children)
	}

	if len(a.Chunks) != 2 {
		t.Fatalf("chunks = %+v", a.Chunks)
	}
	c0, c1 := a.Chunks[0], a.Chunks[1]
	if c0.ID != "c0" || c1.ID != "c1" {
		t.Fatalf("chunk order: %s, %s", c0.ID, c1.ID)
	}
	if c0.Row != 0 || c0.Lo != 0 || c0.Hi != 8 {
		t.Fatalf("c0 bounds: %+v", c0)
	}
	if c0.QueuedUS < 0 {
		t.Fatal("c0 queued event not seen")
	}
	if len(c0.Leases) != 2 || c0.Leases[0].Worker != "w1" || !c0.Leases[1].Stolen || c0.Leases[1].Worker != "w2" {
		t.Fatalf("c0 leases: %+v", c0.Leases)
	}
	if c0.Requeues != 1 || !c0.Lost {
		t.Fatalf("c0 requeue/lost: %+v", c0)
	}
	if c0.CompletedBy != "w2" || c0.CompletedUS < 0 {
		t.Fatalf("c0 completion: %+v", c0)
	}
	if len(c1.Leases) != 1 || c1.Leases[0].Stolen {
		t.Fatalf("c1 leases: %+v", c1.Leases)
	}
}

func TestRenderers(t *testing.T) {
	tr, err := readTrace(strings.NewReader(syntheticArtifact(t)))
	if err != nil {
		t.Fatal(err)
	}
	a := analyze(tr)

	sum := renderSummary(a)
	for _, want := range []string{"trace fleet.campaign", "spans 2, events 9", "fleet.run", "merge"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}

	wf := renderWaterfall(a)
	// merge is indented under fleet.run.
	if !strings.Contains(wf, "fleet.run") || !strings.Contains(wf, "  merge") {
		t.Errorf("waterfall wrong:\n%s", wf)
	}

	ch := renderChunks(a)
	for _, want := range []string{
		"c0 (row 0, trials [0,8))",
		"leased", "→w1",
		"stolen", "→w2",
		"requeued ×1",
		"completed",
		"c1 (row 0, trials [8,16))",
	} {
		if !strings.Contains(ch, want) {
			t.Errorf("chunk timeline missing %q:\n%s", want, ch)
		}
	}

	cp := renderCriticalPath(a)
	if !strings.Contains(cp, "fleet.run") || !strings.Contains(cp, "→ merge") {
		t.Errorf("critical path wrong:\n%s", cp)
	}
}

func TestReadTraceErrors(t *testing.T) {
	if _, err := readTrace(strings.NewReader(`{"type":"span","name":"x"}`)); err == nil {
		t.Fatal("missing header accepted")
	}
	if _, err := readTrace(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Unknown line types are skipped for forward compatibility.
	art := `{"type":"trace","name":"t","start":"2026-01-01T00:00:00Z"}` + "\n" +
		`{"type":"future-thing","name":"x"}` + "\n"
	tr, err := readTrace(strings.NewReader(art))
	if err != nil {
		t.Fatal(err)
	}
	if tr.header.Name != "t" || len(tr.spans) != 0 {
		t.Fatalf("unexpected parse: %+v", tr)
	}
}

// TestFleetArtifactRoundTrip is the acceptance criterion end to end: run a
// real fleet scenario with the flight recorder on, then reconstruct the
// complete chunk timeline from the artifact alone.
func TestFleetArtifactRoundTrip(t *testing.T) {
	var art strings.Builder
	rec := obs.NewTracer(&art, "fleet.roundtrip")
	c := fleet.NewCoordinator(fleet.Config{
		ChunkTrials:      2,
		HeartbeatTimeout: 250 * time.Millisecond,
		StealAfter:       100 * time.Millisecond,
		PollInterval:     10 * time.Millisecond,
		Trace:            rec,
	})
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := &fleet.Worker{Base: ts.URL, Parallelism: 2, Poll: 5 * time.Millisecond, Trace: rec}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Workers() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("workers never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}

	spec := &scenario.Spec{
		Graph:     "cycle",
		Algorithm: "mis/luby",
		Trials:    6,
		Seed:      9,
		Sweep:     &scenario.Sweep{Param: "n", Values: []float64{24, 40}},
	}
	if _, err := c.RunScenario(context.Background(), spec); err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	cancel()
	wg.Wait()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	parsed, err := readTrace(strings.NewReader(art.String()))
	if err != nil {
		t.Fatalf("artifact unreadable: %v", err)
	}
	a := analyze(parsed)
	// 2 rows × 6 trials / 2 per chunk = 6 chunks, each with a full
	// queue → lease → complete lifecycle reconstructed from events alone.
	if len(a.Chunks) != 6 {
		t.Fatalf("reconstructed %d chunks, want 6: %+v", len(a.Chunks), a.Chunks)
	}
	for _, ch := range a.Chunks {
		if ch.QueuedUS < 0 {
			t.Errorf("chunk %s: no queue event", ch.ID)
		}
		if len(ch.Leases) == 0 {
			t.Errorf("chunk %s: no lease", ch.ID)
		}
		if ch.CompletedUS < 0 || ch.CompletedBy == "" {
			t.Errorf("chunk %s: completion not recorded", ch.ID)
		}
		if ch.ErrorMsg != "" {
			t.Errorf("chunk %s: unexpected error %q", ch.ID, ch.ErrorMsg)
		}
	}
	// The run span and its merge child made it into the tree, so the
	// waterfall and critical path render without panicking.
	out := renderSummary(a) + renderWaterfall(a) + renderChunks(a) + renderCriticalPath(a)
	for _, wantStr := range []string{"fleet.run", "merge", "chunk timeline:", "critical path:"} {
		if !strings.Contains(out, wantStr) {
			t.Errorf("rendered output missing %q", wantStr)
		}
	}
}

// TestRenderDispatch pins the typed-header guard: any header type that is
// not a trace line type — a fabricated one, or the retired load and twin
// artifact formats — is a one-line error naming the type, never a
// fall-through to the trace reader.
func TestRenderDispatch(t *testing.T) {
	for _, typ := range []string{"flux-capacitor", "load", "twin"} {
		_, err := render([]byte(`{"type":"`+typ+`","name":"x"}`+"\n"), true, true)
		if err == nil {
			t.Fatalf("header type %q accepted", typ)
		}
		if !strings.Contains(err.Error(), `unknown artifact header type "`+typ+`"`) {
			t.Fatalf("error does not name the type %q: %v", typ, err)
		}
	}

	// A trace artifact still renders end to end.
	out, err := render([]byte(syntheticArtifact(t)), true, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "trace fleet.campaign") || !strings.Contains(out, "critical path:") {
		t.Fatalf("trace render drifted:\n%s", out)
	}

	// Headerless garbage keeps the trace reader's named error.
	if _, err := render([]byte(`{"type":"span","name":"x"}`+"\n"), true, true); err == nil ||
		!strings.Contains(err.Error(), "no trace header") {
		t.Fatalf("headerless artifact error = %v", err)
	}
}
