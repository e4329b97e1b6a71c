// Package registry names every graph family and every algorithm of the
// library so workloads can be selected by data instead of by Go code. It is
// the single catalogue behind cmd/localsim, cmd/avgserve and the scenario
// layer: a graph family is a parameterized generator with declared,
// validated parameters; an algorithm entry binds a core.Runner to the
// core.Problem it solves. Lookup errors always carry the list of available
// names, so every client gets discoverability for free.
package registry

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"

	"avgloc/internal/alg/coloring"
	"avgloc/internal/alg/matching"
	"avgloc/internal/alg/mis"
	"avgloc/internal/alg/orient"
	"avgloc/internal/alg/ruling"
	"avgloc/internal/core"
	"avgloc/internal/graph"
	"avgloc/internal/lb/basegraph"
	"avgloc/internal/lb/kmwmatch"
	"avgloc/internal/lb/lift"
)

// Param declares one numeric parameter of a graph family.
type Param struct {
	Name    string  `json:"name"`
	Doc     string  `json:"doc"`
	Default float64 `json:"default"`
	Integer bool    `json:"integer"`       // value must be integral
	Min     float64 `json:"min"`           // inclusive lower bound
	Max     float64 `json:"max,omitempty"` // inclusive upper bound; 0 = unbounded
}

// Values assigns a value to parameter names.
type Values map[string]float64

// Int returns v[name] as an int (parameters are validated integral first).
func (v Values) Int(name string) int { return int(v[name]) }

// Clone returns an independent copy of v.
func (v Values) Clone() Values {
	out := make(Values, len(v))
	for k, x := range v {
		out[k] = x
	}
	return out
}

// AppendCanonical writes the canonical rendering of v to b: one
// "param.<name>=<value>" line per parameter in sorted name order, each value
// formatted with strconv.FormatFloat(x, 'g', -1, 64). This is the single
// stable-ordering machinery behind every content-addressed key derived from
// a parameter map — scenario content hashes and graph-store keys both render
// through it — so JSON field order and map iteration order can never split
// a cache.
func (v Values) AppendCanonical(b *strings.Builder) {
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b, "param.%s=%s\n", k, strconv.FormatFloat(v[k], 'g', -1, 64))
	}
}

// GraphFamily is a named, parameterized graph generator.
type GraphFamily struct {
	Name   string  `json:"name"`
	Doc    string  `json:"doc"`
	Params []Param `json:"params"`
	Random bool    `json:"random"` // consumes the rng; deterministic families ignore it
	// build constructs the graph from normalized values. It must consume rng
	// identically for equal inputs so equal seeds yield identical graphs.
	build func(v Values, rng *rand.Rand) (*graph.Graph, error)
}

// Normalize checks v against the family's declared parameters, fills
// defaults, and returns the complete value set.
func (f *GraphFamily) Normalize(v Values) (Values, error) {
	known := make(map[string]Param, len(f.Params))
	for _, p := range f.Params {
		known[p.Name] = p
	}
	for name := range v {
		if _, ok := known[name]; !ok {
			return nil, fmt.Errorf("registry: graph %q has no parameter %q (parameters: %s)",
				f.Name, name, strings.Join(f.paramNames(), ", "))
		}
	}
	out := make(Values, len(f.Params))
	for _, p := range f.Params {
		x, ok := v[p.Name]
		if !ok {
			x = p.Default
		}
		if p.Integer && x != math.Trunc(x) {
			return nil, fmt.Errorf("registry: graph %q parameter %q must be an integer, got %v", f.Name, p.Name, x)
		}
		if x < p.Min {
			return nil, fmt.Errorf("registry: graph %q parameter %q = %v below minimum %v", f.Name, p.Name, x, p.Min)
		}
		if p.Max != 0 && x > p.Max {
			return nil, fmt.Errorf("registry: graph %q parameter %q = %v above maximum %v", f.Name, p.Name, x, p.Max)
		}
		out[p.Name] = x
	}
	return out, nil
}

func (f *GraphFamily) paramNames() []string {
	names := make([]string, len(f.Params))
	for i, p := range f.Params {
		names[i] = p.Name
	}
	return names
}

// Build normalizes v and constructs the graph. Generator panics (cross-field
// constraint violations surfaced after Normalize) are converted to errors,
// so server callers never crash on bad input.
func (f *GraphFamily) Build(v Values, rng *rand.Rand) (g *graph.Graph, err error) {
	nv, err := f.Normalize(v)
	if err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			g, err = nil, fmt.Errorf("registry: graph %q: %v", f.Name, r)
		}
	}()
	return f.build(nv, rng)
}

// AlgEntry binds a named runner to the problem it solves.
type AlgEntry struct {
	Name    string `json:"name"`
	Doc     string `json:"doc"`
	Problem string `json:"problem"`
	// New constructs a fresh runner/problem pair.
	New func() (core.Runner, core.Problem) `json:"-"`
}

func intParam(name, doc string, def, min, max float64) Param {
	return Param{Name: name, Doc: doc, Default: def, Integer: true, Min: min, Max: max}
}

// maxEdges bounds the size of any single graph built through the registry
// (~16.7M edges). Per-parameter caps alone do not bound the product terms
// (gnp's n²p, regular's nd), and the registry fronts an unauthenticated
// HTTP service, so the total budget is enforced here.
const maxEdges = 1 << 24

func checkEdgeBudget(family string, edges float64) error {
	if edges > maxEdges {
		return fmt.Errorf("registry: graph %q would have ~%.0f edges, above the %d budget", family, edges, maxEdges)
	}
	return nil
}

func graphFamilies() []GraphFamily {
	return []GraphFamily{
		{
			Name: "cycle", Doc: "the n-node cycle C_n",
			Params: []Param{intParam("n", "number of nodes", 1024, 3, 1<<20)},
			build: func(v Values, _ *rand.Rand) (*graph.Graph, error) {
				return graph.Cycle(v.Int("n")), nil
			},
		},
		{
			Name: "path", Doc: "the n-node path P_n",
			Params: []Param{intParam("n", "number of nodes", 1024, 1, 1<<20)},
			build: func(v Values, _ *rand.Rand) (*graph.Graph, error) {
				return graph.Path(v.Int("n")), nil
			},
		},
		{
			Name: "star", Doc: "the star K_{1,n-1} with center 0",
			Params: []Param{intParam("n", "number of nodes", 1024, 1, 1<<20)},
			build: func(v Values, _ *rand.Rand) (*graph.Graph, error) {
				return graph.Star(v.Int("n")), nil
			},
		},
		{
			Name: "complete", Doc: "the complete graph K_n",
			Params: []Param{{Name: "n", Doc: "number of nodes", Default: 64, Integer: true, Min: 1, Max: 4096}},
			build: func(v Values, _ *rand.Rand) (*graph.Graph, error) {
				return graph.Complete(v.Int("n")), nil
			},
		},
		{
			Name: "complete-bipartite", Doc: "K_{a,b}; the first a nodes form one side",
			Params: []Param{
				{Name: "a", Doc: "left side size", Default: 32, Integer: true, Min: 1, Max: 4096},
				{Name: "b", Doc: "right side size", Default: 32, Integer: true, Min: 1, Max: 4096},
			},
			build: func(v Values, _ *rand.Rand) (*graph.Graph, error) {
				return graph.CompleteBipartite(v.Int("a"), v.Int("b")), nil
			},
		},
		{
			Name: "grid", Doc: "the rows x cols grid graph",
			Params: []Param{
				intParam("rows", "grid rows", 32, 1, 2048),
				intParam("cols", "grid columns", 32, 1, 2048),
			},
			build: func(v Values, _ *rand.Rand) (*graph.Graph, error) {
				return graph.Grid(v.Int("rows"), v.Int("cols")), nil
			},
		},
		{
			Name: "torus", Doc: "the rows x cols toroidal grid (4-regular)",
			Params: []Param{
				intParam("rows", "torus rows", 32, 3, 2048),
				intParam("cols", "torus columns", 32, 3, 2048),
			},
			build: func(v Values, _ *rand.Rand) (*graph.Graph, error) {
				return graph.Torus(v.Int("rows"), v.Int("cols")), nil
			},
		},
		{
			Name: "hypercube", Doc: "the d-dimensional hypercube on 2^d nodes",
			// d=20 is the largest dimension whose d*2^(d-1) edges fit maxEdges.
			Params: []Param{{Name: "d", Doc: "dimension", Default: 10, Integer: true, Min: 0, Max: 20}},
			build: func(v Values, _ *rand.Rand) (*graph.Graph, error) {
				return graph.Hypercube(v.Int("d")), nil
			},
		},
		{
			Name: "tree", Doc: "a random labelled tree via random attachment", Random: true,
			Params: []Param{intParam("n", "number of nodes", 1024, 1, 1<<20)},
			build: func(v Values, rng *rand.Rand) (*graph.Graph, error) {
				return graph.RandomTree(v.Int("n"), rng), nil
			},
		},
		{
			Name: "caterpillar", Doc: "a random caterpillar tree: spine path plus random legs", Random: true,
			Params: []Param{
				intParam("n", "number of nodes", 1024, 1, 1<<20),
				intParam("spine", "spine path length", 256, 1, 1<<20),
			},
			build: func(v Values, rng *rand.Rand) (*graph.Graph, error) {
				n, spine := v.Int("n"), v.Int("spine")
				if spine > n {
					return nil, fmt.Errorf("registry: caterpillar needs spine <= n, got n=%d spine=%d", n, spine)
				}
				return graph.RandomCaterpillar(n, spine, rng), nil
			},
		},
		{
			Name: "ba", Doc: "Barabási–Albert preferential attachment (m edges per new node)", Random: true,
			Params: []Param{
				intParam("n", "number of nodes", 1024, 2, 1<<20),
				intParam("m", "edges attached per new node", 3, 1, 64),
			},
			build: func(v Values, rng *rand.Rand) (*graph.Graph, error) {
				n, m := v.Int("n"), v.Int("m")
				if m >= n {
					return nil, fmt.Errorf("registry: ba needs m < n, got n=%d m=%d", n, m)
				}
				if err := checkEdgeBudget("ba", float64(n)*float64(m)); err != nil {
					return nil, err
				}
				return graph.BarabasiAlbert(n, m, rng), nil
			},
		},
		{
			Name: "gnp", Doc: "Erdős–Rényi G(n, p)", Random: true,
			Params: []Param{
				{Name: "n", Doc: "number of nodes", Default: 1024, Integer: true, Min: 1, Max: 65536},
				{Name: "p", Doc: "edge probability", Default: 0.005, Min: 0, Max: 1},
			},
			build: func(v Values, rng *rand.Rand) (*graph.Graph, error) {
				n, p := v.Int("n"), v["p"]
				if err := checkEdgeBudget("gnp", float64(n)*float64(n-1)/2*p); err != nil {
					return nil, err
				}
				return graph.GNP(n, p, rng), nil
			},
		},
		{
			Name: "regular", Doc: "a simple random d-regular graph (configuration model)", Random: true,
			Params: []Param{
				intParam("n", "number of nodes", 1024, 1, 1<<20),
				intParam("d", "degree", 6, 0, 256),
			},
			build: func(v Values, rng *rand.Rand) (*graph.Graph, error) {
				n, d := v.Int("n"), v.Int("d")
				if n*d%2 != 0 {
					return nil, fmt.Errorf("registry: regular needs n*d even, got n=%d d=%d", n, d)
				}
				if d >= n {
					return nil, fmt.Errorf("registry: regular needs d < n, got n=%d d=%d", n, d)
				}
				if err := checkEdgeBudget("regular", float64(n)*float64(d)/2); err != nil {
					return nil, err
				}
				return graph.RandomRegular(n, d, rng), nil
			},
		},
		{
			Name: "kmw", Doc: "random order-q lift of the KMW cluster-tree base graph G_k(β) (Section 4)", Random: true,
			Params: []Param{
				intParam("k", "cluster tree parameter k", 1, 0, 2),
				intParam("beta", "cluster size parameter β (even)", 4, 4, 8),
				intParam("q", "random lift order", 4, 1, 64),
			},
			build: func(v Values, rng *rand.Rand) (*graph.Graph, error) {
				base, err := kmwBase(v)
				if err != nil {
					return nil, err
				}
				if err := checkEdgeBudget("kmw", float64(base.G.M())*v["q"]); err != nil {
					return nil, err
				}
				inst, err := lift.BuildInstance(base, v.Int("q"), rng)
				if err != nil {
					return nil, err
				}
				return inst.G, nil
			},
		},
		{
			Name: "kmw-matching", Doc: "doubled order-q KMW lift joined by a perfect matching (Theorem 17)", Random: true,
			Params: []Param{
				intParam("k", "cluster tree parameter k", 1, 0, 2),
				intParam("beta", "cluster size parameter β (even)", 4, 4, 8),
				intParam("q", "random lift order", 2, 1, 64),
			},
			build: func(v Values, rng *rand.Rand) (*graph.Graph, error) {
				base, err := kmwBase(v)
				if err != nil {
					return nil, err
				}
				// Doubled lift: 2q copies of every base edge plus the
				// q·n(base) inter-copy matching edges.
				if err := checkEdgeBudget("kmw-matching", (2*float64(base.G.M())+float64(base.G.N()))*v["q"]); err != nil {
					return nil, err
				}
				inst, err := kmwmatch.Build(base, v.Int("q"), rng)
				if err != nil {
					return nil, err
				}
				return inst.G, nil
			},
		},
		{
			Name: "bipartite-regular", Doc: "a bipartite d-regular graph on 2n nodes (union of matchings)", Random: true,
			Params: []Param{
				intParam("n", "side size (graph has 2n nodes)", 512, 1, 1<<19),
				intParam("d", "degree", 4, 1, 128),
			},
			build: func(v Values, rng *rand.Rand) (*graph.Graph, error) {
				n, d := v.Int("n"), v.Int("d")
				if d > n {
					return nil, fmt.Errorf("registry: bipartite-regular needs d <= n, got n=%d d=%d", n, d)
				}
				if err := checkEdgeBudget("bipartite-regular", float64(n)*float64(d)); err != nil {
					return nil, err
				}
				return graph.RandomBipartiteRegular(n, d, rng), nil
			},
		},
	}
}

// kmwBase builds the Section 4 base graph G_k(β) for the kmw families;
// the declared per-parameter bounds cannot express β's evenness, so it is
// checked here.
func kmwBase(v Values) (*basegraph.Instance, error) {
	beta := v.Int("beta")
	if beta%2 != 0 {
		return nil, fmt.Errorf("registry: kmw needs beta even, got %d", beta)
	}
	return basegraph.Build(basegraph.Params{K: v.Int("k"), Beta: beta})
}

func algEntries() []AlgEntry {
	return []AlgEntry{
		{Name: "mis/luby", Doc: "Luby's randomized MIS", Problem: core.MIS.Name,
			New: func() (core.Runner, core.Problem) { return core.MessagePassing(mis.Luby{}), core.MIS }},
		{Name: "mis/ghaffari", Doc: "Ghaffari's randomized MIS", Problem: core.MIS.Name,
			New: func() (core.Runner, core.Problem) { return core.MessagePassing(mis.Ghaffari{}), core.MIS }},
		{Name: "mis/det-coloring", Doc: "deterministic MIS via coloring reduction", Problem: core.MIS.Name,
			New: func() (core.Runner, core.Problem) { return core.MessagePassing(mis.Det{}), core.MIS }},
		{Name: "ruling/rand22", Doc: "randomized (2,2)-ruling set (Theorem 2)", Problem: core.RulingSet(2).Name,
			New: func() (core.Runner, core.Problem) {
				return core.MessagePassing(ruling.Rand22{}), core.RulingSet(2)
			}},
		{Name: "ruling/det-logdelta", Doc: "deterministic (2,O(log Δ))-ruling set (Theorem 3)", Problem: core.RulingSet(64).Name,
			New: func() (core.Runner, core.Problem) {
				return core.MessagePassing(ruling.Det{Variant: ruling.LogDelta}), core.RulingSet(64)
			}},
		{Name: "ruling/det-loglogn", Doc: "deterministic (2,O(log log n))-ruling set (Theorem 3)", Problem: core.RulingSet(64).Name,
			New: func() (core.Runner, core.Problem) {
				return core.MessagePassing(ruling.Det{Variant: ruling.LogLogN}), core.RulingSet(64)
			}},
		{Name: "matching/randluby", Doc: "randomized maximal matching via Luby edge marking", Problem: core.MaximalMatching.Name,
			New: func() (core.Runner, core.Problem) {
				return core.MessagePassing(matching.RandLuby{}), core.MaximalMatching
			}},
		{Name: "matching/israeliitai", Doc: "Israeli–Itai randomized maximal matching", Problem: core.MaximalMatching.Name,
			New: func() (core.Runner, core.Problem) {
				return core.MessagePassing(matching.IsraeliItai{}), core.MaximalMatching
			}},
		{Name: "matching/det", Doc: "deterministic maximal matching via fractional rounding (Theorem 5)", Problem: core.MaximalMatching.Name,
			New: func() (core.Runner, core.Problem) { return matching.Det{}, core.MaximalMatching }},
		{Name: "coloring/randgreedy", Doc: "randomized greedy (Δ+1)-coloring", Problem: "coloring",
			New: func() (core.Runner, core.Problem) {
				return core.MessagePassing(coloring.RandGreedy{}), core.Coloring(1 << 30)
			}},
		{Name: "orient/det-averaged", Doc: "deterministic sinkless orientation, node-averaged (Theorem 6)", Problem: core.SinklessOrientation.Name,
			New: func() (core.Runner, core.Problem) { return orient.DetAveraged{}, core.SinklessOrientation }},
		{Name: "orient/det-worstcase", Doc: "deterministic sinkless orientation, global-cycle baseline", Problem: core.SinklessOrientation.Name,
			New: func() (core.Runner, core.Problem) { return orient.DetWorstCase{}, core.SinklessOrientation }},
		{Name: "orient/rand-marking", Doc: "randomized sinkless orientation via marking [GS17a]", Problem: core.SinklessOrientation.Name,
			New: func() (core.Runner, core.Problem) { return orient.RandMarking{}, core.SinklessOrientation }},
	}
}

// Graphs returns every graph family, sorted by name.
func Graphs() []GraphFamily {
	fams := graphFamilies()
	sort.Slice(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
	return fams
}

// GraphNames returns the sorted names of all graph families.
func GraphNames() []string {
	fams := Graphs()
	names := make([]string, len(fams))
	for i, f := range fams {
		names[i] = f.Name
	}
	return names
}

// FindGraph returns the named graph family. The error for an unknown name
// lists every available family.
func FindGraph(name string) (*GraphFamily, error) {
	for _, f := range graphFamilies() {
		if f.Name == name {
			f := f
			return &f, nil
		}
	}
	return nil, fmt.Errorf("registry: unknown graph family %q (available: %s)",
		name, strings.Join(GraphNames(), ", "))
}

// Algorithms returns every algorithm entry, sorted by name.
func Algorithms() []AlgEntry {
	algs := algEntries()
	sort.Slice(algs, func(i, j int) bool { return algs[i].Name < algs[j].Name })
	return algs
}

// AlgorithmNames returns the sorted names of all algorithm entries.
func AlgorithmNames() []string {
	algs := Algorithms()
	names := make([]string, len(algs))
	for i, a := range algs {
		names[i] = a.Name
	}
	return names
}

// FindAlgorithm returns the named algorithm entry. The error for an unknown
// name lists every available entry.
func FindAlgorithm(name string) (*AlgEntry, error) {
	for _, a := range algEntries() {
		if a.Name == name {
			a := a
			return &a, nil
		}
	}
	return nil, fmt.Errorf("registry: unknown algorithm %q (available: %s)",
		name, strings.Join(AlgorithmNames(), ", "))
}
