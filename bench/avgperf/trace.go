package main

import (
	"context"
	"fmt"
	goruntime "runtime"
	"runtime/metrics"
	"sort"
	"time"

	"avgloc/internal/core"
	"avgloc/internal/graph"
	"avgloc/internal/graphstore"
	"avgloc/internal/registry"
	"avgloc/internal/resultstore"
	rt "avgloc/internal/runtime"
	"avgloc/internal/scenario"
	"avgloc/internal/seedmix"
)

// Span is one timed section of a traced run. Start and End are
// nanoseconds from the origin of the run (or, for spans read from an
// avgserve trace artifact, of that artifact); Parent is 0 for a root.
type Span struct {
	Run    string `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps the spans of a traced replay in memory, nesting each new
// span under the innermost open one. Traced replays run sequentially
// (parallelism 1) so the layer self times add up to the pass wall time;
// the recorder is therefore not safe for concurrent use.
type recorder struct {
	run   string
	base  time.Time
	spans []Span
	open  []int // indices into spans of the open spans, innermost last

	// Engine counters of the replayed trials.
	trials, nodeRounds, messages, allocs int64
}

func newRecorder(run string) *recorder {
	return &recorder{run: run, base: time.Now()}
}

// begin opens a span and returns the function that closes it.
func (r *recorder) begin(name string) func() {
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	i := len(r.spans)
	r.spans = append(r.spans, Span{Run: r.run, ID: i + 1, Parent: parent, Name: name, Start: time.Since(r.base).Nanoseconds()})
	r.open = append(r.open, i)
	return func() {
		r.spans[i].End = time.Since(r.base).Nanoseconds()
		r.open = r.open[:len(r.open)-1]
	}
}

// selfTimes returns each span's self time in nanoseconds, keyed by its
// index in spans: its duration minus the part of it that the union of its
// children's intervals covers. Children are matched on (Run, Parent).
func selfTimes(spans []Span) []int64 {
	type key struct {
		run string
		id  int
	}
	children := make(map[key][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			k := key{s.Run, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[key{s.Run, s.ID}]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered int64
		curLo, curHi := int64(0), int64(-1)
		for _, c := range kids {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// spanLayer maps a span name to the per-layer metric its self time feeds;
// "" leaves the time unattributed (pass and scenario glue). The self time
// of core.measure_range is the per-trial completion-time fold (identifier
// permutation, measure.Completion, the one-sided edge average), which
// belongs to the measure layer beside core.MergeTrials.
func spanLayer(name string) string {
	switch name {
	case "core.measure_range", "measure.aggregate":
		return "measure.aggregate_ms"
	case "graph.build", "graph.load", "graphstore.get":
		return "graphstore.get_ms"
	case "store.put", "resultstore.put":
		return "resultstore.put_ms"
	case "request":
		return "scenario.marshal_ms"
	case "runtime.setup", "runtime.rounds_frontier", "runtime.rounds_blocking",
		"locality.rounds_charged", "core.validate", "scenario.marshal",
		"resultstore.get", "campaign.evaluate", "lb.lift", "lb.cycle_probe", "lb.cover_check":
		return name + "_ms"
	}
	return ""
}

// layerTimes sums the self times of spans per layer metric, in ms.
func layerTimes(spans []Span) map[string]float64 {
	out := make(map[string]float64)
	for i, self := range selfTimes(spans) {
		if l := spanLayer(spans[i].Name); l != "" {
			out[l] += float64(self) / 1e6
		}
	}
	return out
}

// blockingAlgorithms are the registry algorithms whose node programs are
// built with runtime.NewBlocking: their rounds switch goroutines per node,
// a cost the frontier loop of the state-machine programs does not have.
var blockingAlgorithms = map[string]bool{
	"mis/det-coloring":    true,
	"ruling/det-logdelta": true,
}

// heapAllocs is the number of heap objects the process has allocated.
func heapAllocs() int64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// tracedRunner times one row's trials layer by layer: engine setup (one
// runtime.NewEngine per row, as core.MeasureRange builds one per worker),
// the round loop, or the charged runner of a locality algorithm.
type tracedRunner struct {
	inner  core.Runner
	rec    *recorder
	rounds string // span name of the round loop
	eng    *rt.Engine
}

func (t *tracedRunner) Name() string { return t.inner.Name() }

func (t *tracedRunner) Run(g *graph.Graph, assignment []int64, seed uint64) (*rt.Result, error) {
	er, ok := t.inner.(core.EngineRunner)
	if !ok {
		defer t.rec.begin("locality.rounds_charged")()
		return t.inner.Run(g, assignment, seed)
	}
	if t.eng == nil {
		end := t.rec.begin("runtime.setup")
		t.eng = rt.NewEngine(g)
		end()
	}
	a0 := heapAllocs()
	end := t.rec.begin(t.rounds)
	res, err := er.RunEngine(t.eng, assignment, seed)
	end()
	t.rec.allocs += heapAllocs() - a0
	t.rec.trials++
	if err != nil {
		return nil, err
	}
	t.rec.messages += res.Messages
	for _, h := range res.NodeHalt {
		if h < 0 {
			h = int32(res.Rounds)
		}
		t.rec.nodeRounds += int64(h) + 1
	}
	return res, nil
}

// graphSeeds and rowSeed copy internal/scenario's derivations of a row's
// graph stream and measurement seed. The traced replay must reproduce the
// untraced outcome byte for byte, so any drift in either copy fails the
// run's byte comparison loudly.
func graphSeeds(seed uint64, row int) (uint64, uint64) {
	return seed, 0xA11CE5 + uint64(row)*0x9E3779B97F4A7C15
}

func rowSeed(seed uint64, row int) uint64 {
	return seedmix.Derive(seed, 0x524F57, row)
}

// rowParams expands a normalized spec into one parameter set per row.
func rowParams(n *scenario.Spec) []registry.Values {
	if n.Sweep == nil {
		return []registry.Values{n.Params}
	}
	out := make([]registry.Values, 0, len(n.Sweep.Values))
	for _, x := range n.Sweep.Values {
		v := n.Params.Clone()
		v[n.Sweep.Param] = x
		out = append(out, v)
	}
	return out
}

// warmGraphs fetches every row graph of spec into graphs, as scenario.Run
// will ask for them.
func warmGraphs(graphs *graphstore.Store, spec *scenario.Spec) error {
	n, err := spec.Normalize()
	if err != nil {
		return err
	}
	for i, p := range rowParams(n) {
		s1, s2 := graphSeeds(n.Seed, i)
		if _, err := graphs.Get(context.Background(), n.Graph, p, s1, s2); err != nil {
			return err
		}
	}
	return nil
}

// traceSpec rebuilds scenario.Run's outcome for spec from public calls,
// one span per layer, and returns the outcome with its MarshalStable
// bytes after a Put/Get round trip through rs.
func traceSpec(rec *recorder, spec *scenario.Spec, graphs *graphstore.Store, rs *resultstore.Store) (*scenario.Outcome, []byte, error) {
	defer rec.begin("scenario")()
	n, err := spec.Normalize()
	if err != nil {
		return nil, nil, err
	}
	hash, err := n.Hash()
	if err != nil {
		return nil, nil, err
	}
	key, err := n.Key()
	if err != nil {
		return nil, nil, err
	}
	entry, err := registry.FindAlgorithm(n.Algorithm)
	if err != nil {
		return nil, nil, err
	}
	rounds := "runtime.rounds_frontier"
	if blockingAlgorithms[n.Algorithm] {
		rounds = "runtime.rounds_blocking"
	}
	params := rowParams(n)
	rows := make([]scenario.Row, len(params))
	for i, p := range params {
		end := rec.begin("graphstore.get")
		s1, s2 := graphSeeds(n.Seed, i)
		g, err := graphs.Get(context.Background(), n.Graph, p, s1, s2)
		end()
		if err != nil {
			return nil, nil, err
		}
		runner, problem := entry.New()
		validate := problem.Validate
		timed := problem
		timed.Validate = func(g *graph.Graph, res *rt.Result) error {
			defer rec.begin("core.validate")()
			return validate(g, res)
		}
		end = rec.begin("core.measure_range")
		outs, err := core.MeasureRange(g, timed, &tracedRunner{inner: runner, rec: rec, rounds: rounds},
			core.MeasureOptions{Seed: rowSeed(n.Seed, i), Parallelism: 1}, 0, n.Trials)
		end()
		if err != nil {
			return nil, nil, fmt.Errorf("row %d: %w", i, err)
		}
		end = rec.begin("measure.aggregate")
		rep := core.MergeTrials(core.Meta(g, problem, runner), outs)
		end()
		rows[i] = scenario.Row{Params: p, Nodes: g.N(), Edges: g.M(), Report: rep}
	}
	out := &scenario.Outcome{Spec: n, Hash: hash, Rows: rows}
	end := rec.begin("scenario.marshal")
	data, err := out.MarshalStable()
	end()
	if err != nil {
		return nil, nil, err
	}
	end = rec.begin("resultstore.put")
	err = rs.Put(key, data)
	end()
	if err != nil {
		return nil, nil, err
	}
	end = rec.begin("resultstore.get")
	back, ok := rs.Get(key)
	end()
	if !ok {
		return nil, nil, fmt.Errorf("resultstore lost key %s", key)
	}
	return out, back, nil
}

// traceLayers is the per-layer view of a traced replay over ops
// operations: self times per operation, engine counters, and the share of
// the replay's wall time the layers account for.
func traceLayers(rec *recorder, wall time.Duration, ops int) map[string]float64 {
	layers := make(map[string]float64)
	var sum float64
	for l, ms := range layerTimes(rec.spans) {
		layers[l] = ms / float64(ops)
		sum += ms
	}
	layers["trace.accounted_ratio"] = sum / (float64(wall.Nanoseconds()) / 1e6)
	layers["runtime.node_rounds"] = float64(rec.nodeRounds)
	layers["runtime.messages"] = float64(rec.messages)
	if rec.trials > 0 {
		layers["runtime.allocs_per_trial"] = float64(rec.allocs) / float64(rec.trials)
	}
	return layers
}

// nproc is the worker budget of every workload: one per usable CPU.
func nproc() int { return goruntime.GOMAXPROCS(0) }
