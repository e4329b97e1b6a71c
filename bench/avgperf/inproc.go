package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	goruntime "runtime"
	"time"

	"avgloc/internal/campaign"
	"avgloc/internal/graphstore"
	"avgloc/internal/lb/basegraph"
	"avgloc/internal/lb/lift"
	"avgloc/internal/registry"
	"avgloc/internal/resultstore"
	"avgloc/internal/scenario"
	"avgloc/internal/seedmix"
)

// closedLoop is an in-process workload: one caller runs a pass, waits for
// it, and runs the next.
type closedLoop interface {
	// setup builds the workload's warm state from scratch; release drops
	// it.
	setup() error
	release() error
	// pass runs one untraced pass at the given parallelism and returns its
	// output bytes.
	pass(par int) ([]byte, error)
	// traced replays one pass sequentially from public calls, recording a
	// span per layer and storing outcomes in rs; its bytes must equal
	// pass's.
	traced(rec *recorder, rs *resultstore.Store) ([]byte, error)
	// check judges the last pass beyond byte stability.
	check() []string
	// graphs is the warm graph store the passes read.
	graphs() *graphstore.Store
}

// runClosed measures a closed-loop workload: setup (repeated, median
// reported), one warm-up pass, then timed passes at Parallelism=nproc until
// cfg.seconds have elapsed; with tracing, an untraced sequential pass and
// its traced replay give the per-layer split.
func runClosed(w closedLoop, cfg config, res *result) error {
	if err := measureSetup(cfg, res, w.release, w.setup); err != nil {
		return err
	}
	var ref []byte
	if cfg.trace != traceLayers1 {
		builds := w.graphs().Stats().Builds
		var err error
		if ref, err = w.pass(nproc()); err != nil {
			return fmt.Errorf("warm-up pass: %w", err)
		}
		res.checkf(w.graphs().Stats().Builds == builds, "warm-up pass built %d graphs the setup should have built", w.graphs().Stats().Builds-builds)
		res.note(w.check())
		// Each pass starts from a collected heap with the peak-RSS mark
		// reset, so neither the previous pass's garbage nor its peak lands
		// in this one; passes stop once another would run past the
		// measured phase.
		var ms, rss []float64
		ok := 0
		start := time.Now()
		for len(ms) < minPasses || time.Since(start)+time.Duration(ms[len(ms)-1]*1e6) <= cfg.seconds {
			goruntime.GC()
			if err := resetPeakRSS(os.Getpid()); err != nil {
				return err
			}
			t0 := time.Now()
			out, err := w.pass(nproc())
			ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
			peak, rerr := peakRSSMB(os.Getpid())
			if rerr != nil {
				return rerr
			}
			rss = append(rss, peak)
			res.Attempted++
			switch {
			case err != nil:
				res.fail("pass %d: %v", len(ms), err)
			case !bytes.Equal(out, ref):
				res.fail("pass %d output differs from the warm-up pass", len(ms))
			default:
				ok++
			}
		}
		res.setE2E(ms, rss, float64(ok)/float64(len(ms)))
		st := medianStat(ms)
		res.Metrics["pass_s"] = Stat{Value: st.Value / 1e3, Q1: st.Q1 / 1e3, Q3: st.Q3 / 1e3, N: st.N}
		res.OutputsSHA256 = sha256Hex(ref)
	}
	if cfg.trace == traceE2E {
		return nil
	}
	t0 := time.Now()
	base, err := w.pass(1)
	if err != nil {
		return fmt.Errorf("sequential pass: %w", err)
	}
	baseWall := time.Since(t0)
	if ref != nil {
		res.checkf(bytes.Equal(base, ref), "sequential pass output differs from Parallelism=%d", nproc())
	} else {
		res.note(w.check())
		res.OutputsSHA256 = sha256Hex(base)
	}
	tmp, err := os.MkdirTemp(cfg.tmp, "traced-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	rs, err := resultstore.New(64, tmp)
	if err != nil {
		return err
	}
	rec := newRecorder(res.runID)
	before := w.graphs().Stats()
	t0 = time.Now()
	out, err := w.traced(rec, rs)
	wall := time.Since(t0)
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	res.checkf(bytes.Equal(out, base), "traced pass bytes differ from the untraced pass")
	layers := traceLayers(rec, wall, 1)
	after := w.graphs().Stats()
	layers["graphstore.builds"] = float64(after.Builds - before.Builds)
	layers["graphstore.hits"] = float64(after.Hits - before.Hits)
	if lookups := after.Hits + after.Misses - before.Hits - before.Misses; lookups > 0 {
		layers["graphstore.hit_ratio"] = float64(after.Hits-before.Hits) / float64(lookups)
	}
	layers["resultstore.hits"] = float64(rs.Stats().Hits)
	layers["resultstore.evictions"] = float64(rs.Stats().Evictions)
	layers["scenario.outcome_bytes"] = float64(len(out))
	layers["trace.overhead_ratio"] = wall.Seconds()/baseWall.Seconds() - 1
	res.setLayers(layers)
	res.Spans = rec.spans
	return nil
}

// minPasses is the least number of timed passes a closed-loop run takes,
// however long they last, so its median has quartiles to stand beside.
const minPasses = 3

// measureSetup runs setup at least minSetupReps times, and on until the
// repetitions have taken setupBudget (at most maxSetupReps; miniature runs
// stop at the minimum), and reports the median as setup_s: a set-up of
// milliseconds is repeated often enough that its median is steady. Before
// each repetition but the first, release drops the previous one's state,
// untimed, and the heap is collected.
func measureSetup(cfg config, res *result, release, setup func() error) error {
	budget := setupBudget
	if cfg.mini {
		budget = 0
	}
	var s []float64
	start := time.Now()
	for len(s) < minSetupReps || (time.Since(start) < budget && len(s) < maxSetupReps) {
		if len(s) > 0 {
			if err := release(); err != nil {
				return err
			}
		}
		goruntime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		s = append(s, time.Since(t0).Seconds())
	}
	res.Metrics["setup_s"] = medianStat(s)
	return nil
}

const (
	minSetupReps = 3
	maxSetupReps = 100
	setupBudget  = time.Second
)

// paper re-runs the paper reproduction: campaigns/paper.json through
// campaign.Run with a fresh result store over a warm graph store, then the
// Lemma 12 lift statistics of E8 at full scale.
type paper struct {
	seed   uint64
	camp   *campaign.Campaign
	orders []int // lift orders
	store  *graphstore.Store
	base   *basegraph.Instance
	last   *campaign.Report // the report of the last untraced pass
}

// newPaper loads the committed campaign with every spec seed set to seed:
// seed 42 is the committed campaign, whose eight verdicts are pinned
// CONFIRMED. mini keeps the first two points of every sweep and the lift
// orders below 16.
func newPaper(root string, seed uint64, mini bool) (*paper, error) {
	data, err := os.ReadFile(filepath.Join(root, "campaigns", "paper.json"))
	if err != nil {
		return nil, err
	}
	c, err := campaign.Parse(data)
	if err != nil {
		return nil, err
	}
	p := &paper{seed: seed, camp: c, orders: []int{1, 4, 16, 64}}
	for i := range c.Scenarios {
		spec := &c.Scenarios[i].Spec
		spec.Seed = seed
		if mini && spec.Sweep != nil {
			spec.Sweep.Values = spec.Sweep.Values[:2]
		}
	}
	if mini {
		p.orders = p.orders[:2]
	}
	return p, nil
}

func (p *paper) graphs() *graphstore.Store { return p.store }

func (p *paper) release() error {
	p.store, p.base = nil, nil
	return nil
}

func (p *paper) setup() error {
	store, err := graphstore.New(0, "")
	if err != nil {
		return err
	}
	for i := range p.camp.Scenarios {
		if err := warmGraphs(store, &p.camp.Scenarios[i].Spec); err != nil {
			return err
		}
	}
	base, err := basegraph.Build(basegraph.Params{K: 1, Beta: 4})
	if err != nil {
		return err
	}
	p.store, p.base = store, base
	return nil
}

func (p *paper) pass(par int) ([]byte, error) {
	rs, err := resultstore.New(64, "")
	if err != nil {
		return nil, err
	}
	rep, err := campaign.Run(p.camp, campaign.Options{Parallelism: par, Store: rs, Graphs: p.store})
	if err != nil {
		return nil, err
	}
	p.last = rep
	data, err := rep.MarshalStable()
	if err != nil {
		return nil, err
	}
	return p.liftStats(data, nil)
}

// liftStats appends E8's full-scale statistics to out: for each order q a random lift
// of G_1(β=4), its covering-map check, the fraction of nodes on cycles of
// length ≤3 and ≤5, and its girth. rec, when non-nil, times each layer.
func (p *paper) liftStats(out []byte, rec *recorder) ([]byte, error) {
	span := func(name string) func() {
		if rec == nil {
			return func() {}
		}
		return rec.begin(name)
	}
	rng := rand.New(rand.NewPCG(p.seed, 8))
	for _, q := range p.orders {
		end := span("lb.lift")
		g, err := lift.Random(p.base.G, q, rng)
		end()
		if err != nil {
			return nil, err
		}
		end = span("lb.cover_check")
		err = lift.IsCoveringMap(p.base.G, g, q)
		end()
		if err != nil {
			return nil, fmt.Errorf("q=%d: %w", q, err)
		}
		end = span("lb.cycle_probe")
		f3, f5, girth := lift.ShortCycleFraction(g, 3), lift.ShortCycleFraction(g, 5), g.Girth()
		end()
		out = fmt.Appendf(out, "lift q=%d n=%d frac3=%.6f frac5=%.6f girth=%d\n", q, g.N(), f3, f5, girth)
	}
	return out, nil
}

func (p *paper) traced(rec *recorder, rs *resultstore.Store) ([]byte, error) {
	defer rec.begin("pass")()
	// One execution per distinct key, as campaign.Run dedupes them.
	byKey := make(map[string]*scenario.Outcome)
	runs := make([]campaign.ScenarioRun, len(p.camp.Scenarios))
	for i := range p.camp.Scenarios {
		it := &p.camp.Scenarios[i]
		key, err := it.Spec.Key()
		if err != nil {
			return nil, err
		}
		out, ok := byKey[key]
		if !ok {
			if out, _, err = traceSpec(rec, &it.Spec, p.store, rs); err != nil {
				return nil, fmt.Errorf("%s: %w", it.Name, err)
			}
			byKey[key] = out
		}
		runs[i] = campaign.ScenarioRun{Index: i, Name: it.Name, Key: key, Outcome: out}
	}
	end := rec.begin("campaign.evaluate")
	rep, err := campaign.Evaluate(p.camp, runs)
	end()
	if err != nil {
		return nil, err
	}
	data, err := rep.MarshalStable()
	if err != nil {
		return nil, err
	}
	return p.liftStats(data, rec)
}

// check holds the committed campaign to its pinned verdicts: at seed 42
// every hypothesis is CONFIRMED. Other seeds draw other graphs, where the
// fit gates may legitimately answer INCONCLUSIVE.
func (p *paper) check() []string {
	if p.seed != 42 || len(p.orders) < 4 || p.last.Confirmed == len(p.camp.Scenarios) {
		return nil
	}
	return []string{fmt.Sprintf("seed 42: %d of %d verdicts CONFIRMED", p.last.Confirmed, len(p.camp.Scenarios))}
}

// sweepLarge runs five large message-passing specs whose engine arenas
// exceed L2, so the frontier round loop dominates.
type sweepLarge struct {
	specs []scenario.Spec
	store *graphstore.Store
}

// newSweepLarge derives the five specs from seed; mini divides every node
// count by 64.
func newSweepLarge(seed uint64, mini bool) *sweepLarge {
	type shape struct {
		graph  string
		params registry.Values
		alg    string
	}
	shapes := []shape{
		{"regular", registry.Values{"n": 131072, "d": 8}, "mis/luby"},
		{"regular", registry.Values{"n": 131072, "d": 8}, "ruling/rand22"},
		{"regular", registry.Values{"n": 131072, "d": 6}, "matching/israeliitai"},
		{"regular", registry.Values{"n": 65536, "d": 8}, "coloring/randgreedy"},
		{"tree", registry.Values{"n": 262144}, "mis/luby"},
	}
	w := &sweepLarge{}
	for i, s := range shapes {
		if mini {
			s.params["n"] /= 64
		}
		w.specs = append(w.specs, scenario.Spec{
			Graph: s.graph, Params: s.params, Algorithm: s.alg, Trials: 2,
			Seed: seedmix.Derive(seed, sweepDomain, i),
		})
	}
	return w
}

// sweepDomain separates the sweep-large spec seeds from other derivations
// of the workload seed.
const sweepDomain = 0x5357454550 // "SWEEP"

func (w *sweepLarge) graphs() *graphstore.Store { return w.store }

func (w *sweepLarge) release() error {
	w.store = nil
	return nil
}

func (w *sweepLarge) setup() error {
	store, err := graphstore.New(0, "")
	if err != nil {
		return err
	}
	for i := range w.specs {
		if err := warmGraphs(store, &w.specs[i]); err != nil {
			return err
		}
	}
	w.store = store
	return nil
}

func (w *sweepLarge) pass(par int) ([]byte, error) {
	var out []byte
	for i := range w.specs {
		o, err := scenario.Run(&w.specs[i], scenario.Options{Parallelism: par, Graphs: w.store})
		if err != nil {
			return nil, err
		}
		data, err := o.MarshalStable()
		if err != nil {
			return nil, err
		}
		out = append(out, data...)
	}
	return out, nil
}

func (w *sweepLarge) traced(rec *recorder, rs *resultstore.Store) ([]byte, error) {
	defer rec.begin("pass")()
	var out []byte
	for i := range w.specs {
		_, data, err := traceSpec(rec, &w.specs[i], w.store, rs)
		if err != nil {
			return nil, err
		}
		out = append(out, data...)
	}
	return out, nil
}

func (w *sweepLarge) check() []string { return nil }
