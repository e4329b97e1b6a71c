// Package scenario turns a declarative JSON description of a measurement
// workload — graph family + parameters, algorithm, trial count, seed and an
// optional sweep axis — into measured core.Report rows. A Spec has a
// canonical content hash that is independent of JSON field ordering and of
// the seed, so (hash, seed) identifies a run's full output and serves as
// the result-cache key used by internal/resultstore and cmd/avgserve.
package scenario

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"avgloc/internal/core"
	"avgloc/internal/graphstore"
	"avgloc/internal/obs"
	"avgloc/internal/registry"
	"avgloc/internal/seedmix"
)

// DefaultTrials is the trial count used when a Spec leaves Trials unset.
const DefaultTrials = 3

// MaxTrials, MaxSweepValues and MaxTotalTrials bound what one scenario may
// ask of a server worker: avgserve accepts unauthenticated specs, so a
// single request's work must be bounded. The caps compose — the product
// trials × rows is capped too, and the registry's edge budget bounds the
// per-trial graph size.
const (
	MaxTrials      = 4096
	MaxSweepValues = 256
	MaxTotalTrials = 16384
)

// Sweep varies one graph parameter across a list of values, producing one
// report row per value.
type Sweep struct {
	Param  string    `json:"param"`
	Values []float64 `json:"values"`
}

// Spec is the declarative description of one measurement workload.
type Spec struct {
	// Name is a free-form label; it does not affect the content hash.
	Name   string          `json:"name,omitempty"`
	Graph  string          `json:"graph"`
	Params registry.Values `json:"params,omitempty"`
	// Algorithm is required to run; omitempty lets graph-only spec
	// fragments (ctgen's registry-vocabulary output) render cleanly.
	Algorithm string `json:"algorithm,omitempty"`
	// Trials is the number of independent trials per row (default
	// DefaultTrials).
	Trials int `json:"trials,omitempty"`
	// Seed is the master seed for graph generation, identifier permutations
	// and algorithm randomness.
	Seed  uint64 `json:"seed,omitempty"`
	Sweep *Sweep `json:"sweep,omitempty"`
}

// DecodeStrict decodes exactly one JSON value from data into v. Unknown
// fields are errors, and so is anything but whitespace after the value: a
// document with a second value appended must not parse as its first half.
func DecodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// Normalize validates the spec against the registry and returns a copy with
// defaults filled in: graph parameters completed from the family's
// declaration and the trial count made explicit. Normalizing is idempotent,
// and two specs that normalize equal are the same scenario.
func (s *Spec) Normalize() (*Spec, error) {
	if s.Graph == "" {
		return nil, fmt.Errorf("scenario: missing \"graph\"")
	}
	if s.Algorithm == "" {
		return nil, fmt.Errorf("scenario: missing \"algorithm\"")
	}
	fam, err := registry.FindGraph(s.Graph)
	if err != nil {
		return nil, err
	}
	if _, err := registry.FindAlgorithm(s.Algorithm); err != nil {
		return nil, err
	}
	params, err := fam.Normalize(s.Params)
	if err != nil {
		return nil, err
	}
	out := *s
	// Name is a non-identifying label excluded from the hash; clear it so a
	// cached outcome never serves one client's label to another.
	out.Name = ""
	out.Params = params
	if out.Trials <= 0 {
		out.Trials = DefaultTrials
	}
	if out.Trials > MaxTrials {
		return nil, fmt.Errorf("scenario: trials %d above maximum %d", out.Trials, MaxTrials)
	}
	if s.Sweep != nil {
		if len(s.Sweep.Values) == 0 {
			return nil, fmt.Errorf("scenario: sweep over %q has no values", s.Sweep.Param)
		}
		if len(s.Sweep.Values) > MaxSweepValues {
			return nil, fmt.Errorf("scenario: sweep has %d values, maximum %d", len(s.Sweep.Values), MaxSweepValues)
		}
		if total := out.Trials * len(s.Sweep.Values); total > MaxTotalTrials {
			return nil, fmt.Errorf("scenario: trials × sweep values = %d, maximum %d", total, MaxTotalTrials)
		}
		sweep := Sweep{Param: s.Sweep.Param, Values: append([]float64(nil), s.Sweep.Values...)}
		out.Sweep = &sweep
		// Each sweep value must itself validate against the family.
		for _, x := range sweep.Values {
			v := params.Clone()
			v[sweep.Param] = x
			if _, err := fam.Normalize(v); err != nil {
				return nil, fmt.Errorf("scenario: sweep value %v: %w", x, err)
			}
		}
	}
	return &out, nil
}

// Hash returns the canonical content hash of the scenario: a sha256 over a
// fixed-order rendering of the normalized spec. JSON field ordering, map
// ordering, omitted defaults and the Name label do not change it; the Seed
// does not either — the result-cache key is (Hash, Seed), see Key.
func (s *Spec) Hash() (string, error) {
	n, err := s.Normalize()
	if err != nil {
		return "", err
	}
	// The preamble versions the execution semantics AND the outcome
	// rendering: v2 derived an independent measurement seed per sweep row
	// (v1 fed every row the master seed, correlating their randomness);
	// v3 added the realized graph size (Row.Nodes/Edges) that the campaign
	// layer fits growth classes against — a cached v2 document would
	// deserialize with zero sizes and poison every fit. Old disk entries
	// simply miss and age out of the store.
	var b strings.Builder
	b.WriteString("scenario/v3\n")
	fmt.Fprintf(&b, "graph=%s\n", n.Graph)
	// Sorted "param.k=v" lines via the registry's canonical rendering — the
	// same machinery graph-store keys hash through, and byte-identical to the
	// inline loop it replaced, so existing cache entries keep their keys.
	n.Params.AppendCanonical(&b)
	fmt.Fprintf(&b, "alg=%s\n", n.Algorithm)
	fmt.Fprintf(&b, "trials=%d\n", n.Trials)
	if n.Sweep != nil {
		vals := make([]string, len(n.Sweep.Values))
		for i, x := range n.Sweep.Values {
			vals[i] = strconv.FormatFloat(x, 'g', -1, 64)
		}
		fmt.Fprintf(&b, "sweep.%s=%s\n", n.Sweep.Param, strings.Join(vals, ","))
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:]), nil
}

// Key returns the result-cache key of this spec at its seed:
// "<hash>-s<seed>". It is filesystem- and URL-safe.
func (s *Spec) Key() (string, error) {
	h, err := s.Hash()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s-s%d", h, s.Seed), nil
}

// ChunkKey is the result-cache key of one executed chunk of the scenario
// with cache key key: row `row`, trials [lo, hi). Chunk keys share the
// scenario-key alphabet (internal/resultstore accepts them), so the fleet
// coordinator can cache chunk partials in the same store as full outcomes
// and a re-run after a worker crash only re-executes the lost chunks.
func ChunkKey(key string, row, lo, hi int) string {
	return fmt.Sprintf("%s-c%d-%d-%d", key, row, lo, hi)
}

// Rows returns the number of report rows the spec produces: one per sweep
// value, or a single row without a sweep.
func (s *Spec) Rows() int {
	if s.Sweep == nil {
		return 1
	}
	return len(s.Sweep.Values)
}

// Row is one measured point of an outcome: the effective graph parameters,
// the realized graph size, and the aggregated report. Nodes/Edges are the
// built graph's actual size — for families whose node count is indirect
// (kmw's k/beta/q, grid's rows×cols) they are the only size record, and
// they are the x-axis the campaign layer fits growth classes against.
type Row struct {
	Params registry.Values `json:"params"`
	Nodes  int             `json:"nodes"`
	Edges  int             `json:"edges"`
	Report *core.Report    `json:"report"`
}

// Outcome is the executed scenario: the normalized spec, its content hash,
// and one row per sweep value (a single row without a sweep).
type Outcome struct {
	Spec *Spec  `json:"spec"`
	Hash string `json:"hash"`
	Rows []Row  `json:"rows"`
}

// MarshalStable renders the outcome as deterministic, indented JSON: equal
// outcomes produce byte-identical documents (encoding/json sorts map keys),
// which is what the result store caches and the server serves.
func (o *Outcome) MarshalStable() ([]byte, error) {
	data, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Options configures execution.
type Options struct {
	// Parallelism is the run's worker budget when Ctx carries no
	// core.Budget: one core.Budget of Parallelism tokens that the row pool
	// and every row's trial pool draw on, so a worker freed by a finished
	// row helps with another row's trials. Under campaign.Run, Ctx carries
	// the campaign's budget instead. Every random stream is derived from
	// (seed, row, trial) alone and rows merge in row order, so outcomes
	// are byte-identical at every level.
	Parallelism int
	// Ctx, if non-nil, cancels the run between rows: a cancelled request
	// (client gone, deadline hit) stops paying for rows whose results
	// nobody will read. Cancellation is row-granular — a row in flight
	// finishes — and surfaces as ctx.Err(), never as a partial outcome.
	Ctx context.Context
	// Graphs is the content-addressed store rows fetch their graphs
	// through; nil selects the process-wide graphstore.Shared(). Served
	// graphs — memory hit, disk load, or fresh build — are exactly the
	// generator's output for the row's seed stream, so the store never
	// changes outcome bytes, cold or warm.
	Graphs *graphstore.Store
}

// graphSeeds returns the PCG seed pair whose stream generates row i's
// graph: derived from the master seed and the row index alone, so rows are
// independent of execution order and equal (spec, seed) pairs always build
// equal graphs. The pair is also the graph's identity in the graph store —
// rand.New(rand.NewPCG(s1, s2)) is exactly the stream the family consumes.
func graphSeeds(seed uint64, row int) (uint64, uint64) {
	return seed, 0xA11CE5 + uint64(row)*0x9E3779B97F4A7C15
}

// rowSeedDomain separates per-row measurement seeds from the per-trial
// algorithm-seed streams core.Measure derives from them.
const rowSeedDomain = 0x524F57 // "ROW"

// rowSeed is the core.Measure master seed of sweep row i. Each row gets an
// independent SplitMix64-derived seed: feeding the unmodified master seed
// to every row would reuse identical per-trial identifier permutations and
// algorithm seeds across rows, correlating points that the sweep treats as
// independent measurements.
func rowSeed(seed uint64, row int) uint64 {
	return seedmix.Derive(seed, rowSeedDomain, row)
}

// Run executes the scenario: each row builds its graph from a row-derived
// seed stream and measures under a row-derived measurement seed, rows and
// their trials run concurrently on one worker budget (Options.Parallelism),
// and results merge in row order. The outcome depends only on (normalized
// spec, seed, registry contents) — never on scheduling — so it can be
// cached under Key.
func Run(s *Spec, opt Options) (*Outcome, error) {
	n, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	hash, err := n.Hash()
	if err != nil {
		return nil, err
	}
	rows := make([]Row, n.Rows())
	// Tracing brackets rows, never trials: the hot measurement loop in
	// core.MeasureRange is untouched, and a nil span (tracing off) makes
	// every call below a no-op.
	runSpan := obs.FromCtx(opt.Ctx).Span("scenario.run",
		obs.A("hash", hash), obs.A("rows", len(rows)), obs.A("trials", n.Trials))
	budget, ctx := core.BudgetFrom(opt.Ctx, opt.Parallelism)
	err = budget.ForEach(len(rows), func() func(int) error {
		return func(i int) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			rowSpan := runSpan.Span("scenario.row", obs.A("row", i))
			rowOpt := opt
			rowOpt.Ctx = obs.With(ctx, rowSpan)
			// The row is one chunk covering every trial, merged inside this
			// worker, so no row's per-trial outcomes outlive the row.
			c, err := measureRow(n, i, 0, n.Trials, rowOpt)
			if err == nil {
				rows[i], err = n.mergeRow(i, []*Chunk{c})
			}
			if err != nil {
				rowSpan.End(obs.A("error", err.Error()))
				return err
			}
			rowSpan.End(obs.A("nodes", rows[i].Nodes), obs.A("edges", rows[i].Edges))
			return nil
		}
	})
	if err != nil {
		runSpan.End(obs.A("error", err.Error()))
		return nil, err
	}
	runSpan.End()
	return &Outcome{Spec: n, Hash: hash, Rows: rows}, nil
}

// rowParams returns the effective graph parameters of report row i of a
// normalized spec: the base params, with the sweep value set.
func (n *Spec) rowParams(i int) registry.Values {
	if n.Sweep == nil {
		return n.Params
	}
	v := n.Params.Clone()
	v[n.Sweep.Param] = n.Sweep.Values[i]
	return v
}

// measureRow is the one place a row is measured: trials [lo, hi) of row
// `row` of the normalized spec n. It fetches the row's graph from the
// store under graphSeeds — so rows across specs, batches, campaigns and
// fleet workers share one build — and measures under rowSeed.
// The trials fan out on opt.Ctx's budget, or on one of opt.Parallelism
// tokens; opt.Ctx also parents the graph.build and graph.load spans.
func measureRow(n *Spec, row, lo, hi int, opt Options) (*Chunk, error) {
	entry, err := registry.FindAlgorithm(n.Algorithm)
	if err != nil {
		return nil, err
	}
	graphs := opt.Graphs
	if graphs == nil {
		graphs = graphstore.Shared()
	}
	s1, s2 := graphSeeds(n.Seed, row)
	g, err := graphs.Get(opt.Ctx, n.Graph, n.rowParams(row), s1, s2)
	if err != nil {
		return nil, fmt.Errorf("scenario: row %d: %w", row, err)
	}
	runner, problem := entry.New()
	outs, err := core.MeasureRange(g, problem, runner, core.MeasureOptions{
		Seed:        rowSeed(n.Seed, row),
		Parallelism: opt.Parallelism,
		Ctx:         opt.Ctx,
	}, lo, hi)
	if err != nil {
		return nil, fmt.Errorf("scenario: row %d (%s on %s): %w", row, n.Algorithm, g, err)
	}
	return &Chunk{Row: row, TrialLo: lo, TrialHi: hi, Meta: core.Meta(g, problem, runner), Trials: outs}, nil
}

// Chunk is the unit of distributed scenario execution: the per-trial
// outcomes of trials [TrialLo, TrialHi) of one sweep row, plus the row's
// realized identity. Chunks are produced by RunChunk — on any machine —
// and reassembled by MergeChunks; because trial indices are absolute and
// every random stream is counter-derived from (seed, row, trial), any
// partition of a row's trial set into chunks merges into the same Outcome
// bytes as a single-process Run.
type Chunk struct {
	Row     int                 `json:"row"`
	TrialLo int                 `json:"trial_lo"`
	TrialHi int                 `json:"trial_hi"`
	Meta    core.ReportMeta     `json:"meta"`
	Trials  []core.TrialOutcome `json:"trials"`
}

// ChunkChecker holds, for each row of a spec, the metadata that row's
// chunks must agree on: the algorithm and problem the spec names, and —
// since only the built graph knows them — the graph, nodes and edges of
// the row's first accepted chunk. The fleet's upload and chunk-cache
// paths and MergeChunks all check chunks through one.
type ChunkChecker struct {
	algorithm, problem string
	rows               []core.ReportMeta // zero until the row's first accepted chunk
}

// ChunkChecker returns a checker for the rows of the normalized spec n,
// with no chunk accepted yet.
func (n *Spec) ChunkChecker() (*ChunkChecker, error) {
	entry, err := registry.FindAlgorithm(n.Algorithm)
	if err != nil {
		return nil, err
	}
	runner, problem := entry.New()
	return &ChunkChecker{
		algorithm: runner.Name(),
		problem:   problem.Name,
		rows:      make([]core.ReportMeta, n.Rows()),
	}, nil
}

// Accept reports whether c is a well-formed result of trials [lo, hi) of
// row `row` that agrees with the row's other chunks: its identity matches,
// the range is non-empty, its metadata equals the row's, it carries hi-lo
// trials, and every trial's node and edge arrays have the sizes the row's
// metadata declares. The row's first accepted chunk fixes its graph,
// nodes and edges for the chunks after it. Chunks arrive from workers and
// from disk; an over-long array would crash the merge, a short one would
// skew the averages, and a chunk that disagrees with its row's other
// chunks would fail the merge.
func (k *ChunkChecker) Accept(c *Chunk, row, lo, hi int) error {
	if c == nil {
		return errors.New("scenario: missing chunk")
	}
	if row < 0 || row >= len(k.rows) {
		return fmt.Errorf("scenario: chunk row %d outside rows [0, %d)", row, len(k.rows))
	}
	if c.Row != row || c.TrialLo != lo || c.TrialHi != hi {
		return fmt.Errorf("scenario: chunk row %d trials [%d, %d), want row %d trials [%d, %d)", c.Row, c.TrialLo, c.TrialHi, row, lo, hi)
	}
	if lo < 0 || hi <= lo {
		return fmt.Errorf("scenario: row %d chunk trials [%d, %d) empty or negative", row, lo, hi)
	}
	want := k.rows[row]
	if want == (core.ReportMeta{}) {
		want = c.Meta
		want.Algorithm, want.Problem = k.algorithm, k.problem
	}
	if c.Meta != want {
		return fmt.Errorf("scenario: row %d chunk [%d, %d) metadata %+v disagrees with the row's %+v", row, lo, hi, c.Meta, want)
	}
	if len(c.Trials) != hi-lo {
		return fmt.Errorf("scenario: row %d chunk [%d, %d) carries %d trials", row, lo, hi, len(c.Trials))
	}
	for i, o := range c.Trials {
		if len(o.Node) != want.Nodes || len(o.Edge) != want.Edges {
			return fmt.Errorf("scenario: row %d trial %d has %d node and %d edge times, want %d and %d",
				row, lo+i, len(o.Node), len(o.Edge), want.Nodes, want.Edges)
		}
	}
	k.rows[row] = want
	return nil
}

// Forget drops the metadata row's accepted chunks fixed, so the row's next
// accepted chunk fixes it again.
func (k *ChunkChecker) Forget(row int) { k.rows[row] = core.ReportMeta{} }

// RunChunk executes trials [lo, hi) of sweep row `row` of the scenario
// through the same row measurement as Run, so a chunk's outcomes are a
// pure function of (normalized spec, seed, row, trial) — independent of
// which process runs it, and of whether the store served the graph from
// memory, disk, or a fresh build. A fleet worker passes its persistent
// store in opt.Graphs, so a 64-chunk row builds its graph once per
// process; opt.Ctx only parents trace spans here.
func RunChunk(s *Spec, row, lo, hi int, opt Options) (*Chunk, error) {
	n, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	if row < 0 || row >= n.Rows() {
		return nil, fmt.Errorf("scenario: chunk row %d out of range [0, %d)", row, n.Rows())
	}
	if lo < 0 || hi <= lo || hi > n.Trials {
		return nil, fmt.Errorf("scenario: chunk trials [%d, %d) out of range [0, %d)", lo, hi, n.Trials)
	}
	return measureRow(n, row, lo, hi, opt)
}

// MergeChunks reassembles a full Outcome from chunks covering every (row,
// trial) of the scenario exactly once, in any order. The merge sorts each
// row's chunks by trial range and feeds the concatenated outcomes to
// core.MergeTrials — the same accumulation, in the same order, as Run —
// so the result is byte-identical (MarshalStable) to a single-process run.
// Gaps, overlaps, or chunks that fail a ChunkChecker, fed in the given
// order, are errors: a silently tolerated hole would produce a
// plausible-looking but wrong report.
func MergeChunks(s *Spec, chunks []*Chunk) (*Outcome, error) {
	n, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	hash, err := n.Hash()
	if err != nil {
		return nil, err
	}
	check, err := n.ChunkChecker()
	if err != nil {
		return nil, err
	}
	byRow := make([][]*Chunk, n.Rows())
	for _, c := range chunks {
		if c == nil {
			return nil, errors.New("scenario: merge: missing chunk")
		}
		if err := check.Accept(c, c.Row, c.TrialLo, c.TrialHi); err != nil {
			return nil, fmt.Errorf("scenario: merge: %w", err)
		}
		byRow[c.Row] = append(byRow[c.Row], c)
	}
	rows := make([]Row, len(byRow))
	for row, rc := range byRow {
		if rows[row], err = n.mergeRow(row, rc); err != nil {
			return nil, err
		}
	}
	return &Outcome{Spec: n, Hash: hash, Rows: rows}, nil
}

// mergeRow assembles report row `row` of the normalized spec n from chunks
// that must cover its trials exactly once; MergeChunks has already checked
// that they agree on the row's metadata. Run merges each row through it too, as one chunk, so local and fleet
// rows accumulate in the same order by construction.
func (n *Spec) mergeRow(row int, rc []*Chunk) (Row, error) {
	sort.Slice(rc, func(i, j int) bool { return rc[i].TrialLo < rc[j].TrialLo })
	next := 0
	outs := make([]core.TrialOutcome, 0, n.Trials)
	for _, c := range rc {
		if c.TrialLo != next {
			return Row{}, fmt.Errorf("scenario: merge: row %d trials [%d, %d) missing or duplicated", row, next, c.TrialLo)
		}
		outs = append(outs, c.Trials...)
		next = c.TrialHi
	}
	if next != n.Trials {
		return Row{}, fmt.Errorf("scenario: merge: row %d covers %d of %d trials", row, next, n.Trials)
	}
	meta := rc[0].Meta
	return Row{
		Params: n.rowParams(row),
		Nodes:  meta.Nodes,
		Edges:  meta.Edges,
		Report: core.MergeTrials(meta, outs),
	}, nil
}
