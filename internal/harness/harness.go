// Package harness defines the reproduction experiments E1–E14 (README.md;
// PAPER.md has the paper's abstract): each experiment sweeps a workload,
// measures the paper's complexity notions via internal/core, and renders a
// table whose shape is compared against the paper's claim in its header.
package harness

import (
	"fmt"
	"math/rand/v2"
	goruntime "runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"avgloc/internal/alg/coloring"
	"avgloc/internal/alg/matching"
	"avgloc/internal/alg/mis"
	"avgloc/internal/alg/ruling"
	"avgloc/internal/core"
	"avgloc/internal/fit"
	"avgloc/internal/graph"
	"avgloc/internal/ids"
	"avgloc/internal/lb/basegraph"
	"avgloc/internal/lb/iso"
	"avgloc/internal/lb/kmwmatch"
	"avgloc/internal/lb/lift"
	"avgloc/internal/measure"
	"avgloc/internal/registry"
	"avgloc/internal/runtime"
)

// Scale selects the sweep size.
type Scale int

// Scales.
const (
	Quick Scale = iota + 1 // seconds: used by tests and benchmarks
	Full                   // minutes: used by cmd/avgbench -full
)

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper's statement being reproduced
	Columns []string
	Rows    [][]string
	Notes   []string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "   paper: %s\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "  %-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Columns)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "   note: %s\n", n)
	}
	return b.String()
}

// Options configures an experiment run.
type Options struct {
	// Scale selects the sweep size (default Quick).
	Scale Scale
	// Seed is the master seed; every random stream an experiment uses is
	// derived from it, so equal Options give bit-identical tables at any
	// parallelism.
	Seed uint64
	// Parallelism bounds the total worker count an experiment uses, split
	// between concurrent table rows and core.Measure trial fan-out.
	// Zero or negative selects GOMAXPROCS.
	Parallelism int
}

func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return goruntime.GOMAXPROCS(0)
}

// Experiment is a runnable experiment.
type Experiment struct {
	ID    string
	Run   func(opt Options) (*Table, error)
	Brief string
}

// rowPool collects row-producing jobs and runs them on a bounded worker
// pool. Graph generation and every draw from an experiment's shared PRNG
// happen while jobs are BUILT (sequentially, in row order); jobs themselves
// only run measurements whose random streams are derived from the master
// seed. Results are merged in job order, so the table is bit-identical to a
// sequential run.
type rowPool struct {
	jobs []func(measurePar int) ([][]string, error)
}

// add queues a job producing any number of consecutive rows.
func (p *rowPool) add(job func(measurePar int) ([][]string, error)) {
	p.jobs = append(p.jobs, job)
}

// addRow queues a job producing exactly one row.
func (p *rowPool) addRow(job func(measurePar int) ([]string, error)) {
	p.add(func(measurePar int) ([][]string, error) {
		row, err := job(measurePar)
		if err != nil {
			return nil, err
		}
		return [][]string{row}, nil
	})
}

// run executes the queued jobs with at most `workers` total workers: up to
// min(workers, len(jobs)) jobs run concurrently and each job receives the
// leftover budget as its core.Measure trial parallelism. The first error in
// job order wins.
func (p *rowPool) run(workers int) ([][]string, error) {
	n := len(p.jobs)
	if workers < 1 {
		workers = 1
	}
	rowWorkers := workers
	if rowWorkers > n {
		rowWorkers = n
	}
	measurePar := 1
	if rowWorkers > 0 {
		measurePar = workers / rowWorkers
	}
	if measurePar < 1 {
		measurePar = 1
	}
	results := make([][][]string, n)
	errs := make([]error, n)
	if rowWorkers <= 1 {
		for i, job := range p.jobs {
			results[i], errs[i] = job(measurePar)
			if errs[i] != nil {
				break
			}
		}
	} else {
		idx := make(chan int)
		// Jobs above the lowest failing index are skipped: the merge below
		// stops at the first error, so their results are never read.
		minFailed := int64(n)
		var wg sync.WaitGroup
		for w := 0; w < rowWorkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					if int64(i) > atomic.LoadInt64(&minFailed) {
						continue
					}
					results[i], errs[i] = p.jobs[i](measurePar)
					if errs[i] != nil {
						for {
							cur := atomic.LoadInt64(&minFailed)
							if int64(i) >= cur || atomic.CompareAndSwapInt64(&minFailed, cur, int64(i)) {
								break
							}
						}
					}
				}
			}()
		}
		for i := 0; i < n; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	var rows [][]string
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return nil, errs[i]
		}
		rows = append(rows, results[i]...)
	}
	return rows, nil
}

// All returns the experiments in id order.
func All() []Experiment {
	return []Experiment{
		{"E1", E1RulingSet, "Thm 2: (2,2)-ruling set node-averaged O(1)"},
		{"E2", E2DetRulingSet, "Thm 3: deterministic ruling sets node-averaged O(log* n)"},
		{"E3", E3RandMatching, "Thm 4: randomized matching edge-averaged O(1), worst Θ(log n)"},
		{"E4", E4DetMatching, "Thm 5: deterministic matching averaged complexities vs Δ, flat in n"},
		{"E5", E5SinklessDet, "Thm 6: sinkless orientation node-avg flat, worst grows with log n"},
		{"E6", E6MISLowerBound, "Thm 16: MIS node-average grows on the KMW family"},
		{"E7", E7Indistinguishability, "Thm 11: S(c0)/S(c1) k-hop indistinguishability"},
		{"E8", E8LiftGirth, "Lem 12/Cor 15: lift short-cycle statistics"},
		{"E9", E9MatchingLowerBound, "Thm 17: matching node-average grows on doubled KMW graphs"},
		{"E10", E10CycleMIS, "[Feu20]: deterministic vs randomized MIS on cycles"},
		{"E11", E11LubyEdges, "§3.1: Luby one-sided edge-average O(1); MM = MIS on line graph"},
		{"E12", E12MeasureChain, "App. A: AVG ≤ AVG^w ≤ EXP ≤ WORST"},
		{"E13", E13ColoringAvg, "[BT19]: randomized (Δ+1)-coloring node-averaged O(1)"},
		{"E14", E14SinklessRand, "[GS17a]: randomized sinkless orientation node-averaged O(1)"},
	}
}

// Run executes the experiment with the given id.
func Run(id string, opt Options) (*Table, error) {
	for _, e := range All() {
		if e.ID == id {
			return e.Run(opt)
		}
	}
	return nil, fmt.Errorf("harness: unknown experiment %q", id)
}

// Select resolves a comma-separated experiment filter ("E1,E3") into
// experiments, in catalogue order and deduplicated. Ids are trimmed and
// case-insensitive. An empty filter selects everything; an unknown id is
// an error that lists the catalogue, so a typo fails before any
// experiment burns minutes of sweep time.
func Select(filter string) ([]Experiment, error) {
	all := All()
	if strings.TrimSpace(filter) == "" {
		return all, nil
	}
	want := make(map[string]bool)
	for _, id := range strings.Split(filter, ",") {
		id = strings.ToUpper(strings.TrimSpace(id))
		if id == "" {
			continue
		}
		found := false
		for _, e := range all {
			if e.ID == id {
				found = true
				break
			}
		}
		if !found {
			ids := make([]string, len(all))
			for i, e := range all {
				ids[i] = e.ID
			}
			return nil, fmt.Errorf("harness: unknown experiment %q (available: %s)", id, strings.Join(ids, ", "))
		}
		want[id] = true
	}
	if len(want) == 0 {
		return all, nil
	}
	var out []Experiment
	for _, e := range all {
		if want[e.ID] {
			out = append(out, e)
		}
	}
	return out, nil
}

func f1(x float64) string { return fmt.Sprintf("%.1f", x) }
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }

// mustAlg resolves an algorithm entry from internal/registry: the harness
// selects its runners by name, as one client of the same catalogue behind
// cmd/localsim and cmd/avgserve. Names used here are compile-time
// constants, so a lookup failure is a programming error.
func mustAlg(name string) (core.Runner, core.Problem) {
	e, err := registry.FindAlgorithm(name)
	if err != nil {
		panic(err)
	}
	return e.New()
}

// mustGraph builds a registered graph family by name.
func mustGraph(name string, v registry.Values, rng *rand.Rand) *graph.Graph {
	f, err := registry.FindGraph(name)
	if err != nil {
		panic(err)
	}
	g, err := f.Build(v, rng)
	if err != nil {
		panic(err)
	}
	return g
}

func regular(n, d int, rng *rand.Rand) *graph.Graph {
	return mustGraph("regular", registry.Values{"n": float64(n), "d": float64(d)}, rng)
}

// E1RulingSet: Theorem 2 — the (2,2)-ruling set node average stays O(1)
// while the MIS node average exceeds it, across n and Δ.
func E1RulingSet(opt Options) (*Table, error) {
	seed := opt.Seed
	rng := rand.New(rand.NewPCG(seed, 1))
	ns := []int{256, 1024}
	ds := []int{4, 8, 16}
	trials := 3
	if opt.Scale == Full {
		ns = []int{256, 1024, 4096, 16384}
		ds = []int{4, 8, 16, 32, 64}
		trials = 8
	}
	t := &Table{
		ID:      "E1",
		Title:   "(2,2)-ruling set vs MIS, node-averaged complexity",
		Claim:   "Theorem 2: randomized (2,2)-ruling set node-avg O(1); Theorem 16: MIS node-avg grows",
		Columns: []string{"n", "Δ", "rs22 nodeAvg", "rs22 p50", "rs22 p99", "rs22 worst", "luby nodeAvg", "luby p99", "ghaffari nodeAvg"},
	}
	rsRunner, rsProb := mustAlg("ruling/rand22")
	lubyRunner, lubyProb := mustAlg("mis/luby")
	ghRunner, ghProb := mustAlg("mis/ghaffari")
	var pool rowPool
	for _, n := range ns {
		for _, d := range ds {
			if d >= n {
				continue
			}
			n, d := n, d
			g := regular(n, d, rng)
			pool.addRow(func(mp int) ([]string, error) {
				rs, err := core.Measure(g, rsProb, rsRunner, core.MeasureOptions{Trials: trials, Seed: seed, Parallelism: mp})
				if err != nil {
					return nil, err
				}
				lb, err := core.Measure(g, lubyProb, lubyRunner, core.MeasureOptions{Trials: trials, Seed: seed, Parallelism: mp})
				if err != nil {
					return nil, err
				}
				gh, err := core.Measure(g, ghProb, ghRunner, core.MeasureOptions{Trials: trials, Seed: seed, Parallelism: mp})
				if err != nil {
					return nil, err
				}
				return []string{
					fmt.Sprint(n), fmt.Sprint(d),
					f2(rs.NodeAvg), f2(rs.Dist.NodeQ.P50), f2(rs.Dist.NodeQ.P99), f1(rs.WorstMean),
					f2(lb.NodeAvg), f2(lb.Dist.NodeQ.P99), f2(gh.NodeAvg),
				}, nil
			})
		}
	}
	rows, err := pool.run(opt.workers())
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Notes = append(t.Notes, "rs22 phases are 5 rounds; flat columns = O(1) node average")
	return t, nil
}

// E2DetRulingSet: Theorem 3 — deterministic ruling sets: node average
// O(log* n)-flat in n, measured domination radius within the budget.
func E2DetRulingSet(opt Options) (*Table, error) {
	seed := opt.Seed
	rng := rand.New(rand.NewPCG(seed, 2))
	ns := []int{256, 1024}
	ds := []int{4, 8}
	if opt.Scale == Full {
		ns = []int{256, 1024, 4096, 16384}
		ds = []int{4, 8, 16}
	}
	t := &Table{
		ID:      "E2",
		Title:   "deterministic (2,O(log Δ)) and (2,O(log log n)) ruling sets",
		Claim:   "Theorem 3: node-averaged complexity O(log* n); β = O(log Δ) resp. O(log log n)",
		Columns: []string{"n", "Δ", "variant", "nodeAvg", "worst", "β measured", "β budget"},
	}
	var pool rowPool
	for _, variant := range []ruling.DetVariant{ruling.LogDelta, ruling.LogLogN} {
		for _, n := range ns {
			for _, d := range ds {
				n, d, variant := n, d, variant
				g := regular(n, d, rng)
				pool.addRow(func(mp int) ([]string, error) {
					alg := ruling.Det{Variant: variant}
					budget := alg.Iterations(n, d) + 1
					rep, err := core.Measure(g, core.RulingSet(budget), core.MessagePassing(alg), core.MeasureOptions{Trials: 1, Seed: seed, Parallelism: mp})
					if err != nil {
						return nil, err
					}
					// Re-derive the measured radius for the table.
					assignment := ids.RandomPerm(n, rand.New(rand.NewPCG(seed, 77)))
					res, err := runtime.Run(g, alg, runtime.Config{IDs: assignment})
					if err != nil {
						return nil, err
					}
					radius, err := graph.DominationRadius(g, ruling.SetFromResult(res))
					if err != nil {
						return nil, err
					}
					return []string{
						fmt.Sprint(n), fmt.Sprint(d), alg.Name(),
						f2(rep.NodeAvg), f1(rep.WorstMean), fmt.Sprint(radius), fmt.Sprint(budget),
					}, nil
				})
			}
		}
	}
	rows, err := pool.run(opt.workers())
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Notes = append(t.Notes, "finisher substitution per DESIGN.md §3: Linial+KW instead of [BEK15]/[RG20]")
	return t, nil
}

// E3RandMatching: Theorem 4 — randomized maximal matching: flat edge
// average, logarithmic worst case.
func E3RandMatching(opt Options) (*Table, error) {
	seed := opt.Seed
	rng := rand.New(rand.NewPCG(seed, 3))
	ns := []int{256, 1024, 4096}
	trials := 3
	if opt.Scale == Full {
		ns = []int{256, 1024, 4096, 16384, 65536}
		trials = 8
	}
	t := &Table{
		ID:      "E3",
		Title:   "randomized maximal matching (Luby edge-marking and Israeli–Itai)",
		Claim:   "Theorem 4: edge-averaged O(1), worst case O(log n) w.h.p.",
		Columns: []string{"n", "alg", "edgeAvg", "edge p50", "edge p99", "nodeAvg", "worstMean", "worstMax"},
	}
	var pool rowPool
	for _, n := range ns {
		n := n
		g := regular(n, 6, rng)
		for _, name := range []string{"matching/randluby", "matching/israeliitai"} {
			runner, prob := mustAlg(name)
			pool.addRow(func(mp int) ([]string, error) {
				rep, err := core.Measure(g, prob, runner, core.MeasureOptions{Trials: trials, Seed: seed, Parallelism: mp})
				if err != nil {
					return nil, err
				}
				return []string{
					fmt.Sprint(n), runner.Name(),
					f2(rep.EdgeAvg), f2(rep.Dist.EdgeQ.P50), f2(rep.Dist.EdgeQ.P99),
					f2(rep.NodeAvg), f1(rep.WorstMean), f1(rep.WorstMax),
				}, nil
			})
		}
	}
	rows, err := pool.run(opt.workers())
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// E4DetMatching: Theorem 5 — deterministic matching: averaged complexities
// grow with Δ but not with n.
func E4DetMatching(opt Options) (*Table, error) {
	seed := opt.Seed
	rng := rand.New(rand.NewPCG(seed, 4))
	type cfg struct{ n, d int }
	cfgs := []cfg{{512, 4}, {512, 8}, {512, 16}, {128, 8}, {2048, 8}}
	if opt.Scale == Full {
		cfgs = []cfg{{1024, 4}, {1024, 8}, {1024, 16}, {1024, 32}, {256, 8}, {4096, 8}, {16384, 8}}
	}
	t := &Table{
		ID:      "E4",
		Title:   "deterministic maximal matching via fractional rounding",
		Claim:   "Theorem 5: edge-avg O(log²Δ + log* n), node-avg O(log³Δ + log* n), n-independent",
		Columns: []string{"n", "Δ", "edgeAvg", "nodeAvg", "worst"},
	}
	var pool rowPool
	for _, c := range cfgs {
		c := c
		g := regular(c.n, c.d, rng)
		pool.addRow(func(mp int) ([]string, error) {
			rep, err := core.Measure(g, core.MaximalMatching, core.DetMatchingRunner(), core.MeasureOptions{Trials: 1, Seed: seed, Parallelism: mp})
			if err != nil {
				return nil, err
			}
			return []string{
				fmt.Sprint(c.n), fmt.Sprint(c.d), f1(rep.EdgeAvg), f1(rep.NodeAvg), f1(rep.WorstMax),
			}, nil
		})
	}
	rows, err := pool.run(opt.workers())
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Notes = append(t.Notes, "rows with equal Δ and varying n show the n-independence; rows with equal n show the Δ growth")
	return t, nil
}

// E5SinklessDet: Theorem 6 — deterministic sinkless orientation node
// average flat vs the baseline's log n growth.
func E5SinklessDet(opt Options) (*Table, error) {
	seed := opt.Seed
	rng := rand.New(rand.NewPCG(seed, 5))
	ns := []int{512, 2048, 8192}
	if opt.Scale == Full {
		ns = []int{512, 2048, 8192, 32768, 131072}
	}
	detAvg, sinklessProb := mustAlg("orient/det-averaged")
	detWorst, _ := mustAlg("orient/det-worstcase")
	t := &Table{
		ID:      "E5",
		Title:   "deterministic sinkless orientation (Theorem 6 vs global-cycle baseline)",
		Claim:   "Theorem 6: node-averaged O(log* n) with worst case O(log n)",
		Columns: []string{"n", "thm6 nodeAvg", "thm6 worst", "base nodeAvg", "base worst"},
	}
	var pool rowPool
	for _, n := range ns {
		n := n
		g := regular(n, 3, rng)
		pool.addRow(func(mp int) ([]string, error) {
			a, err := core.Measure(g, sinklessProb, detAvg, core.MeasureOptions{Trials: 1, Seed: seed, Parallelism: mp})
			if err != nil {
				return nil, err
			}
			b, err := core.Measure(g, sinklessProb, detWorst, core.MeasureOptions{Trials: 1, Seed: seed, Parallelism: mp})
			if err != nil {
				return nil, err
			}
			return []string{
				fmt.Sprint(n), f1(a.NodeAvg), f1(a.WorstMax), f1(b.NodeAvg), f1(b.WorstMax),
			}, nil
		})
	}
	rows, err := pool.run(opt.workers())
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Notes = append(t.Notes, "thm6 absolute values carry r=2 constants; the claim is in the growth columns")
	return t, nil
}

// kmwInstance builds a lifted KMW instance for E6/E7/E8.
func kmwInstance(k, beta, q int, rng *rand.Rand) (*lift.Instance, error) {
	base, err := basegraph.Build(basegraph.Params{K: k, Beta: beta})
	if err != nil {
		return nil, err
	}
	return lift.BuildInstance(base, q, rng)
}

// E6MISLowerBound: Theorem 16 — MIS node averages grow along the KMW
// family while a degree-matched random regular control stays put; at least
// half of S(c0) joins every MIS.
func E6MISLowerBound(opt Options) (*Table, error) {
	seed := opt.Seed
	rng := rand.New(rand.NewPCG(seed, 6))
	type cfg struct{ k, beta, q int }
	cfgs := []cfg{{0, 4, 4}, {1, 4, 2}}
	trials := 2
	if opt.Scale == Full {
		cfgs = []cfg{{0, 4, 8}, {0, 8, 8}, {1, 4, 4}, {1, 6, 2}, {2, 4, 1}}
		trials = 4
	}
	t := &Table{
		ID:      "E6",
		Title:   "MIS node-averaged complexity on the lifted KMW family",
		Claim:   "Theorem 16: node-avg Ω(min{log Δ/log log Δ, √(log n/log log n)}); ≥ |S(c0)|/2 joins any MIS",
		Columns: []string{"k", "β", "q", "n", "Δ", "alg", "nodeAvg", "control nodeAvg", "S(c0)∩MIS frac"},
	}
	var pool rowPool
	for _, c := range cfgs {
		c := c
		inst, err := kmwInstance(c.k, c.beta, c.q, rng)
		if err != nil {
			return nil, err
		}
		g := inst.G
		deg := g.MaxDegree()
		nCtl := g.N()
		if nCtl*deg%2 != 0 {
			nCtl++
		}
		control := regular(nCtl, deg, rng)
		for _, alg := range []runtime.Algorithm{mis.Luby{}, mis.Ghaffari{}} {
			alg := alg
			// Draw from the experiment stream while building, so the
			// assignment does not depend on job scheduling.
			assignment := ids.RandomPerm(g.N(), rng)
			pool.addRow(func(mp int) ([]string, error) {
				rep, err := core.Measure(g, core.MIS, core.MessagePassing(alg), core.MeasureOptions{Trials: trials, Seed: seed, Parallelism: mp})
				if err != nil {
					return nil, err
				}
				ctl, err := core.Measure(control, core.MIS, core.MessagePassing(alg), core.MeasureOptions{Trials: trials, Seed: seed, Parallelism: mp})
				if err != nil {
					return nil, err
				}
				// S(c0) participation in one concrete MIS.
				res, err := runtime.Run(g, alg, runtime.Config{IDs: assignment, Seed: seed})
				if err != nil {
					return nil, err
				}
				set := mis.SetFromResult(res)
				s0 := inst.Cluster(0)
				in := 0
				for _, v := range s0 {
					if set[v] {
						in++
					}
				}
				return []string{
					fmt.Sprint(c.k), fmt.Sprint(c.beta), fmt.Sprint(c.q),
					fmt.Sprint(g.N()), fmt.Sprint(deg), alg.Name(),
					f2(rep.NodeAvg), f2(ctl.NodeAvg),
					f2(float64(in) / float64(len(s0))),
				}, nil
			})
		}
	}
	rows, err := pool.run(opt.workers())
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Notes = append(t.Notes, "control: random regular graph with matching n and Δ")
	return t, nil
}

// E7Indistinguishability: Theorem 11 — Algorithm 1 isomorphisms and
// universal-cover hashes.
func E7Indistinguishability(opt Options) (*Table, error) {
	rng := rand.New(rand.NewPCG(opt.Seed, 7))
	t := &Table{
		ID:      "E7",
		Title:   "k-hop indistinguishability of S(c0) and S(c1)",
		Claim:   "Theorem 11: tree-like radius-k views of S(c0) and S(c1) are isomorphic",
		Columns: []string{"k", "β", "check", "result"},
	}
	// k=1 with an explicit Algorithm 1 isomorphism on a lifted instance.
	inst, err := kmwInstance(1, 4, 4, rng)
	if err != nil {
		return nil, err
	}
	v0, v1 := firstTreelike(inst.G, inst.Cluster(0), 1), firstTreelike(inst.G, inst.Cluster(1), 1)
	status := "ok"
	if v0 < 0 || v1 < 0 {
		status = "no tree-like pair"
	} else {
		phi, err := iso.FindIsomorphism(inst, 1, v0, v1)
		if err != nil {
			status = "algorithm1: " + err.Error()
		} else if err := iso.VerifyViewIsomorphism(inst.G, phi, v0, v1, 1); err != nil {
			status = "verify: " + err.Error()
		} else {
			status = fmt.Sprintf("isomorphism on %d view nodes verified", len(phi))
		}
	}
	t.Rows = append(t.Rows, []string{"1", "4", "Algorithm 1 + verification (lifted, q=4)", status})

	// Universal-cover hashes on base graphs for k = 1, 2 (and 3 at Full):
	// lifts preserve universal covers, so this tests the view equality of
	// the (infeasibly large) high-girth lift exactly.
	ks := []int{1, 2}
	if opt.Scale == Full {
		ks = []int{1, 2, 3}
	}
	for _, k := range ks {
		base, err := basegraph.Build(basegraph.Params{K: k, Beta: 4})
		if err != nil {
			return nil, err
		}
		match := true
		for depth := 1; depth <= k; depth++ {
			h0 := iso.ViewHash(base.G, int(base.Clusters[0][0]), depth)
			h1 := iso.ViewHash(base.G, int(base.Clusters[1][0]), depth)
			if h0 != h1 {
				match = false
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(k), "4",
			fmt.Sprintf("universal-cover hashes to depth %d", k),
			fmt.Sprintf("equal=%v", match),
		})
	}
	return t, nil
}

func firstTreelike(g *graph.Graph, cluster []int32, k int) int32 {
	for _, v := range cluster {
		if g.TreelikeBall(int(v), k) {
			return v
		}
	}
	return -1
}

// E8LiftGirth: Lemma 12 / Corollary 15 — short-cycle node fractions fall
// with the lift order.
func E8LiftGirth(opt Options) (*Table, error) {
	rng := rand.New(rand.NewPCG(opt.Seed, 8))
	qs := []int{1, 4, 16}
	if opt.Scale == Full {
		qs = []int{1, 4, 16, 64}
	}
	t := &Table{
		ID:      "E8",
		Title:   "random lift short-cycle statistics on G_1(β=4)",
		Claim:   "Lemma 12: P[node on cycle ≤ ℓ] ≤ Δ^ℓ/q — fraction falls as 1/q",
		Columns: []string{"q", "n", "frac ℓ≤3", "frac ℓ≤5", "girth"},
	}
	base, err := basegraph.Build(basegraph.Params{K: 1, Beta: 4})
	if err != nil {
		return nil, err
	}
	var pool rowPool
	for _, q := range qs {
		q := q
		lifted, err := lift.Random(base.G, q, rng)
		if err != nil {
			return nil, err
		}
		pool.addRow(func(int) ([]string, error) {
			return []string{
				fmt.Sprint(q), fmt.Sprint(lifted.N()),
				f2(lift.ShortCycleFraction(lifted, 3)),
				f2(lift.ShortCycleFraction(lifted, 5)),
				fmt.Sprint(lifted.Girth()),
			}, nil
		})
	}
	rows, err := pool.run(opt.workers())
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// E9MatchingLowerBound: Theorem 17 — node average of maximal matching on
// the doubled KMW construction vs its edge average.
func E9MatchingLowerBound(opt Options) (*Table, error) {
	seed := opt.Seed
	rng := rand.New(rand.NewPCG(seed, 9))
	type cfg struct{ k, beta, q int }
	cfgs := []cfg{{0, 8, 2}, {1, 4, 2}}
	trials := 2
	if opt.Scale == Full {
		cfgs = []cfg{{0, 8, 4}, {0, 16, 2}, {1, 4, 4}, {1, 6, 2}}
		trials = 4
	}
	t := &Table{
		ID:      "E9",
		Title:   "maximal matching on the doubled KMW construction",
		Claim:   "Theorem 17: node-avg inherits the KMW bound while Theorem 4 keeps edge-avg O(1)",
		Columns: []string{"k", "β", "q", "n", "edgeAvg", "nodeAvg", "cross frac"},
	}
	var pool rowPool
	for _, c := range cfgs {
		c := c
		base, err := basegraph.Build(basegraph.Params{K: c.k, Beta: c.beta})
		if err != nil {
			return nil, err
		}
		inst, err := kmwmatch.Build(base, c.q, rng)
		if err != nil {
			return nil, err
		}
		assignment := ids.RandomPerm(inst.G.N(), rng)
		pool.addRow(func(mp int) ([]string, error) {
			rep, err := core.Measure(inst.G, core.MaximalMatching, core.MessagePassing(matching.RandLuby{}), core.MeasureOptions{Trials: trials, Seed: seed, Parallelism: mp})
			if err != nil {
				return nil, err
			}
			res, err := runtime.Run(inst.G, matching.RandLuby{}, runtime.Config{IDs: assignment, Seed: seed})
			if err != nil {
				return nil, err
			}
			frac := inst.CrossFractionInMatching(matching.SetFromResult(res))
			return []string{
				fmt.Sprint(c.k), fmt.Sprint(c.beta), fmt.Sprint(c.q), fmt.Sprint(inst.G.N()),
				f2(rep.EdgeAvg), f2(rep.NodeAvg), f2(frac),
			}, nil
		})
	}
	rows, err := pool.run(opt.workers())
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// E10CycleMIS: the [Feu20] context — deterministic MIS on cycles pays
// Θ(log* n) in the node average too; randomized MIS is O(1).
func E10CycleMIS(opt Options) (*Table, error) {
	seed := opt.Seed
	ns := []int{64, 512, 4096}
	trials := 3
	if opt.Scale == Full {
		ns = []int{64, 512, 4096, 32768}
		trials = 8
	}
	t := &Table{
		ID:      "E10",
		Title:   "MIS on cycles: deterministic vs randomized node averages",
		Claim:   "[Feu20]: deterministic node-avg Θ(log* n) (= worst case); randomized O(1)",
		Columns: []string{"n", "det nodeAvg", "det twin pred", "det twin ratio", "det worst", "luby nodeAvg", "luby p50", "luby p99", "luby worstMean"},
	}
	detRunner, detProb := mustAlg("mis/det-coloring")
	lubyRunner, lubyProb := mustAlg("mis/luby")
	detTwin, _ := fit.Lookup("mis/det-coloring", "cycle", "node_avg")
	var pool rowPool
	for _, n := range ns {
		n := n
		g := mustGraph("cycle", registry.Values{"n": float64(n)}, nil)
		pool.addRow(func(mp int) ([]string, error) {
			det, err := core.Measure(g, detProb, detRunner, core.MeasureOptions{Trials: 1, Seed: seed, Parallelism: mp})
			if err != nil {
				return nil, err
			}
			lub, err := core.Measure(g, lubyProb, lubyRunner, core.MeasureOptions{Trials: trials, Seed: seed, Parallelism: mp})
			if err != nil {
				return nil, err
			}
			pred, ratio := twinCells(detTwin, n, 2, det.NodeAvg)
			return []string{
				fmt.Sprint(n), f2(det.NodeAvg), pred, ratio, f1(det.WorstMax),
				f2(lub.NodeAvg), f2(lub.Dist.NodeQ.P50), f2(lub.Dist.NodeQ.P99), f1(lub.WorstMean),
			}, nil
		})
	}
	rows, err := pool.run(opt.workers())
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Notes = append(t.Notes, "p50/p99 over per-node expected times: the bulk is O(1), only the tail pays the worst case")
	t.Notes = append(t.Notes, "det twin: internal/twin's Θ(log* n) closed form beside the measurement (ratio = measured/predicted)")
	return t, nil
}

// twinCells formats one row's frozen-model prediction and
// measured/predicted ratio; "-" cells when the catalogue has no model or
// the model makes no prediction at this size.
func twinCells(m *fit.Frozen, n int, delta, measured float64) (string, string) {
	if m == nil {
		return "-", "-"
	}
	pred, ok := m.Predict(float64(n), delta)
	if !ok {
		return "-", "-"
	}
	return f2(pred), f2(measured / pred)
}

// E11LubyEdges: Section 3.1 — one-sided edge averages of Luby's MIS, and
// the line-graph equivalence of matching and MIS.
func E11LubyEdges(opt Options) (*Table, error) {
	seed := opt.Seed
	rng := rand.New(rand.NewPCG(seed, 11))
	ns := []int{256, 1024}
	trials := 3
	if opt.Scale == Full {
		ns = []int{256, 1024, 4096, 16384}
		trials = 8
	}
	t := &Table{
		ID:      "E11",
		Title:   "Luby MIS edge measures and the line-graph equivalence",
		Claim:   "§3.1: one-sided edge-avg O(1) (footnote 2); node-avg(MIS on L(G)) ≈ edge-avg(MM on G)",
		Columns: []string{"n", "Δ", "oneSidedEdgeAvg", "two-sided edgeAvg", "L(G) MIS nodeAvg", "MM edgeAvg"},
	}
	lubyRunner, lubyProb := mustAlg("mis/luby")
	mmRunner, mmProb := mustAlg("matching/randluby")
	var pool rowPool
	for _, n := range ns {
		n := n
		g := regular(n, 6, rng)
		pool.addRow(func(mp int) ([]string, error) {
			lubyRep, err := core.Measure(g, lubyProb, lubyRunner, core.MeasureOptions{Trials: trials, Seed: seed, Parallelism: mp})
			if err != nil {
				return nil, err
			}
			lg := graph.LineGraph(g)
			lgRep, err := core.Measure(lg, lubyProb, lubyRunner, core.MeasureOptions{Trials: trials, Seed: seed, Parallelism: mp})
			if err != nil {
				return nil, err
			}
			mmRep, err := core.Measure(g, mmProb, mmRunner, core.MeasureOptions{Trials: trials, Seed: seed, Parallelism: mp})
			if err != nil {
				return nil, err
			}
			return []string{
				fmt.Sprint(n), "6",
				f2(lubyRep.OneSidedEdgeAvg), f2(lubyRep.EdgeAvg),
				f2(lgRep.NodeAvg), f2(mmRep.EdgeAvg),
			}, nil
		})
	}
	rows, err := pool.run(opt.workers())
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// E12MeasureChain: Appendix A — the measured chain of complexity notions.
func E12MeasureChain(opt Options) (*Table, error) {
	seed := opt.Seed
	rng := rand.New(rand.NewPCG(seed, 12))
	n := 512
	trials := 5
	if opt.Scale == Full {
		n = 4096
		trials = 16
	}
	g := regular(n, 6, rng)
	t := &Table{
		ID:      "E12",
		Title:   "chain of averaged complexity notions (Luby MIS)",
		Claim:   "Appendix A: AVG_V ≤ AVG^w_V ≤ EXP_V ≤ E[worst] ≤ max worst",
		Columns: []string{"measure", "value"},
	}
	agg := measure.NewAgg(g.N(), g.M())
	eng := runtime.NewEngine(g)
	for trial := 0; trial < trials; trial++ {
		assignment := ids.RandomPerm(n, rng)
		res, err := eng.Run(mis.Luby{}, runtime.Config{IDs: assignment, Seed: seed + uint64(trial)})
		if err != nil {
			return nil, err
		}
		tm, err := measure.Completion(g, res, runtime.NodeOutputs)
		if err != nil {
			return nil, err
		}
		agg.Add(tm)
	}
	// Adversarial-ish weights: proportional to degree (uniform here) plus
	// a heavy tail on the lexicographically last nodes.
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
		if i > n-(n/10) {
			w[i] = 10
		}
	}
	wavg, err := agg.WeightedNodeAvg(w)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows,
		[]string{"AVG_V", f2(agg.NodeAvg())},
		[]string{"AVG^w_V (tail-weighted)", f2(wavg)},
		[]string{"EXP_V", f2(agg.ExpNode())},
		[]string{"E[worst]", f2(agg.WorstMean())},
		[]string{"max worst", f2(agg.WorstMax())},
	)
	chainOK := agg.NodeAvg() <= agg.ExpNode()+1e-9 && wavg <= agg.ExpNode()+1e-9 &&
		agg.ExpNode() <= agg.WorstMean()+1e-9 && agg.WorstMean() <= agg.WorstMax()+1e-9
	t.Notes = append(t.Notes, fmt.Sprintf("chain holds: %v", chainOK))
	return t, nil
}

// E13ColoringAvg: [BT19]/[Joh99] — randomized (Δ+1)-coloring node average
// stays O(1) across Δ and n.
func E13ColoringAvg(opt Options) (*Table, error) {
	seed := opt.Seed
	rng := rand.New(rand.NewPCG(seed, 13))
	type cfg struct{ n, d int }
	cfgs := []cfg{{256, 4}, {256, 16}, {2048, 4}, {2048, 16}}
	trials := 3
	if opt.Scale == Full {
		cfgs = []cfg{{256, 4}, {256, 16}, {256, 64}, {2048, 4}, {2048, 16}, {2048, 64}, {16384, 16}}
		trials = 8
	}
	t := &Table{
		ID:      "E13",
		Title:   "randomized (Δ+1)-coloring",
		Claim:   "[BT19]: node-averaged complexity O(1) (constant per-phase success probability)",
		Columns: []string{"n", "Δ", "nodeAvg", "worstMean"},
	}
	var pool rowPool
	for _, c := range cfgs {
		c := c
		g := regular(c.n, c.d, rng)
		pool.addRow(func(mp int) ([]string, error) {
			rep, err := core.Measure(g, core.Coloring(c.d+1), core.MessagePassing(coloring.RandGreedy{}), core.MeasureOptions{Trials: trials, Seed: seed, Parallelism: mp})
			if err != nil {
				return nil, err
			}
			return []string{fmt.Sprint(c.n), fmt.Sprint(c.d), f2(rep.NodeAvg), f1(rep.WorstMean)}, nil
		})
	}
	rows, err := pool.run(opt.workers())
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// E14SinklessRand: [GS17a] — randomized sinkless orientation node average
// stays O(1) while the deterministic worst case must grow (E5).
func E14SinklessRand(opt Options) (*Table, error) {
	seed := opt.Seed
	rng := rand.New(rand.NewPCG(seed, 14))
	ns := []int{512, 2048, 8192}
	trials := 3
	if opt.Scale == Full {
		ns = []int{512, 2048, 8192, 32768, 131072}
		trials = 8
	}
	randRunner, sinklessProb := mustAlg("orient/rand-marking")
	t := &Table{
		ID:      "E14",
		Title:   "randomized sinkless orientation (marking algorithm)",
		Claim:   "[GS17a] via §3.3: node-averaged complexity O(1)",
		Columns: []string{"n", "nodeAvg", "twin pred", "twin ratio", "edgeAvg", "worstMean"},
	}
	sinkTwin, _ := fit.Lookup("orient/rand-marking", "regular", "node_avg")
	var pool rowPool
	for _, n := range ns {
		n := n
		g := regular(n, 3, rng)
		pool.addRow(func(mp int) ([]string, error) {
			rep, err := core.Measure(g, sinklessProb, randRunner, core.MeasureOptions{Trials: trials, Seed: seed, Parallelism: mp})
			if err != nil {
				return nil, err
			}
			pred, ratio := twinCells(sinkTwin, n, 3, rep.NodeAvg)
			return []string{fmt.Sprint(n), f2(rep.NodeAvg), pred, ratio, f2(rep.EdgeAvg), f1(rep.WorstMean)}, nil
		})
	}
	rows, err := pool.run(opt.workers())
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Notes = append(t.Notes, "twin: internal/twin's O(min(log Δ, log log n)) closed form beside the measurement (ratio = measured/predicted)")
	return t, nil
}

// IDs returns all experiment ids.
func IDs() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}
