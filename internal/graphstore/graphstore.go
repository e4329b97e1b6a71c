package graphstore

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"

	"avgloc/internal/cache"
	"avgloc/internal/graph"
	"avgloc/internal/obs"
	"avgloc/internal/registry"
)

// DefaultMaxBytes is the memory budget of stores constructed without an
// explicit one (Shared, the cmd-layer defaults): enough to keep every graph
// of a typical sweep resident without letting a 10⁷-node campaign pin
// gigabytes.
const DefaultMaxBytes = 256 << 20

// Stats counts store traffic. Builds is the number of generator
// invocations — the metric the CI smoke asserts stays flat across a warm
// restart — and Loads the number of disk artifacts decoded in its place.
type Stats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Builds      int64 `json:"builds"`
	Loads       int64 `json:"loads"`
	Evictions   int64 `json:"evictions"`
	Quarantined int64 `json:"quarantined"`
	Entries     int   `json:"entries"`
	Bytes       int64 `json:"bytes"`
}

// Options carries the optional knobs of NewWithOptions.
type Options struct {
	// TamperDiskWrite, if non-nil, intercepts the sealed bytes of every
	// artifact write (see cache.Tamper); internal/chaos injects faults
	// through it. Checksum verification must turn every injected corruption
	// into a quarantined rebuild, never a served wrong graph.
	TamperDiskWrite cache.Tamper
}

// Store is a content-addressed cache of immutable *graph.Graph values keyed
// by canonical (family, params, seed): a byte-bounded memory LRU over built
// graphs, an optional checksummed disk tier of CSR artifacts, and a
// singleflight layer so concurrent requests for one key build it once.
// Graphs handed out are shared — callers must treat them as immutable,
// which every consumer of graph.Graph already does.
//
// The zero value is not usable; construct with New.
type Store struct {
	mem  *cache.LRU[*graph.Graph] // cost = graphBytes
	disk *cache.Dir               // nil = memory only; cost = file size

	mu     sync.Mutex // orders flight against mem admission
	flight map[string]*flight

	// Counters are atomics, not fields under mu: metrics scrapes
	// (CounterFunc) must never contend with a graph build in progress.
	hits   atomic.Int64
	misses atomic.Int64
	builds atomic.Int64
	loads  atomic.Int64
}

// flight is one in-progress load-or-build; joiners wait on done and read
// g/err, which the leader writes before closing.
type flight struct {
	done chan struct{}
	g    *graph.Graph
	err  error
}

// QuarantineDir is the subdirectory corrupt artifacts are moved into.
const QuarantineDir = cache.QuarantineDir

var format = cache.Format{Magic: "avggraph1 ", Ext: ".csr", Valid: validKey}

// New returns a store holding roughly maxBytes of graphs in memory
// (maxBytes <= 0 selects DefaultMaxBytes). If dir is non-empty it is
// created and every built graph is also persisted there as a checksummed
// CSR artifact; misses fall back to it before invoking a generator.
func New(maxBytes int64, dir string) (*Store, error) {
	return NewWithOptions(maxBytes, dir, Options{})
}

// NewWithOptions is New with fault-injection hooks (see Options).
func NewWithOptions(maxBytes int64, dir string, opts Options) (*Store, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	fileSize := func(size int64) int64 { return size }
	disk, err := cache.NewDir(dir, format, cache.DiskFactor*maxBytes, fileSize, opts.TamperDiskWrite)
	if err != nil {
		return nil, fmt.Errorf("graphstore: %w", err)
	}
	return &Store{mem: cache.NewLRU[*graph.Graph](maxBytes), disk: disk, flight: make(map[string]*flight)}, nil
}

var (
	sharedOnce sync.Once
	shared     *Store
)

// Shared returns the process-wide default store: memory-only, DefaultMaxBytes.
// It is what scenario execution falls back to when no store is configured,
// so even a bare RunChunk loop — a fleet worker without -graph-cache-dir —
// builds each graph once per process instead of once per chunk.
func Shared() *Store {
	sharedOnce.Do(func() {
		shared, _ = New(DefaultMaxBytes, "")
	})
	return shared
}

// Key returns the canonical content address of a graph: sha256 over a
// fixed-order rendering of the family name, its normalized parameters
// (sorted "param.k=v" lines — the same registry.Values.AppendCanonical
// machinery scenario content hashes use, so JSON field order can never
// split the cache) and, for random families only, the generator's PCG seed
// pair. Deterministic families omit the seed: every row and every master
// seed that asks for the same cycle gets the same artifact.
func Key(family string, params registry.Values, seed1, seed2 uint64) (string, error) {
	fam, err := registry.FindGraph(family)
	if err != nil {
		return "", err
	}
	norm, err := fam.Normalize(params)
	if err != nil {
		return "", err
	}
	return keyOf(fam, norm, seed1, seed2), nil
}

// keyOf renders the key of an already-normalized parameter set.
func keyOf(fam *registry.GraphFamily, norm registry.Values, seed1, seed2 uint64) string {
	var b strings.Builder
	b.WriteString("avggraph/v1\n")
	fmt.Fprintf(&b, "family=%s\n", fam.Name)
	norm.AppendCanonical(&b)
	if fam.Random {
		fmt.Fprintf(&b, "seed=%d/%d\n", seed1, seed2)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// Get returns the graph for (family, params, seed1, seed2), where the seed
// pair names the generator's PCG stream. Resolution order: memory LRU, an
// in-flight build of the same key, the disk tier (checksummed; corrupt
// artifacts are quarantined and rebuilt), and finally the generator itself
// — exactly fam.Build(params, rand.New(rand.NewPCG(seed1, seed2))), so a
// store-served graph is indistinguishable from a freshly built one and
// byte-identity of downstream results is preserved cold or warm.
//
// ctx carries the trace span parent (obs.FromCtx); builds and disk loads
// emit graph.build / graph.load spans. Memory hits stay span-free.
func (s *Store) Get(ctx context.Context, family string, params registry.Values, seed1, seed2 uint64) (*graph.Graph, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	fam, err := registry.FindGraph(family)
	if err != nil {
		return nil, err
	}
	norm, err := fam.Normalize(params)
	if err != nil {
		return nil, err
	}
	key := keyOf(fam, norm, seed1, seed2)

	s.mu.Lock()
	if g, ok := s.mem.Get(key); ok {
		s.hits.Add(1)
		s.mu.Unlock()
		return g, nil
	}
	if fl, ok := s.flight[key]; ok {
		s.mu.Unlock()
		select {
		case <-fl.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if fl.err != nil {
			s.misses.Add(1)
			return nil, fl.err
		}
		s.hits.Add(1)
		return fl.g, nil
	}
	fl := &flight{done: make(chan struct{})}
	s.flight[key] = fl
	s.misses.Add(1)
	s.mu.Unlock()

	g, err := s.loadOrBuild(ctx, key, fam, norm, seed1, seed2)
	fl.g, fl.err = g, err
	s.mu.Lock()
	if err == nil {
		s.mem.Add(key, g, graphBytes(g))
	}
	delete(s.flight, key)
	s.mu.Unlock()
	close(fl.done)
	return g, err
}

// loadOrBuild resolves a memory miss: decode the disk artifact if present
// and intact, otherwise run the generator (and persist the result). Build
// errors are returned, never cached — parameter sets that fail validation
// cost one registry round per request, which is what callers expect.
func (s *Store) loadOrBuild(ctx context.Context, key string, fam *registry.GraphFamily, norm registry.Values, seed1, seed2 uint64) (*graph.Graph, error) {
	parent := obs.FromCtx(ctx)
	if s.disk != nil {
		// Ended, and so written, only when an artifact was on disk.
		span := parent.Span("graph.load", obs.A("family", fam.Name), obs.A("key", key))
		g := new(graph.Graph)
		switch found, err := s.disk.Load(key, g.UnmarshalBinary); {
		case found && err == nil:
			s.loads.Add(1)
			span.End(obs.A("nodes", g.N()), obs.A("edges", g.M()))
			return g, nil
		case found:
			// A torn write, a bit flip, a version skew: the artifact is
			// quarantined and the graph rebuilt. Costs one generator run,
			// never serves a wrong graph.
			span.End(obs.A("error", err.Error()), obs.A("quarantined", true))
		}
	}
	span := parent.Span("graph.build", obs.A("family", fam.Name), obs.A("key", key))
	g, err := fam.Build(norm, rand.New(rand.NewPCG(seed1, seed2)))
	if err != nil {
		span.End(obs.A("error", err.Error()))
		return nil, err
	}
	s.builds.Add(1)
	span.End(obs.A("nodes", g.N()), obs.A("edges", g.M()))
	if s.disk != nil {
		// Best-effort: a failed write costs a future rebuild, so it never
		// fails the Get that produced the graph.
		if payload, err := g.MarshalBinary(); err == nil {
			s.disk.Put(key, payload)
		}
	}
	return g, nil
}

// validKey reports whether key is safe as a file name: the 64-hex-digit
// content address keyOf produces.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// graphBytes approximates the resident size of a graph's CSR arrays — the
// unit the memory budget is accounted in.
func graphBytes(g *graph.Graph) int64 {
	return 4*(int64(g.N())+1+8*int64(g.M())) + 64
}

// Len returns the number of in-memory entries.
func (s *Store) Len() int { return s.mem.Len() }

// Stats returns a snapshot of the traffic counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Builds:      s.builds.Load(),
		Loads:       s.loads.Load(),
		Evictions:   s.mem.Evictions(),
		Quarantined: s.disk.Quarantined(),
		Entries:     s.mem.Len(),
		Bytes:       s.mem.Cost(),
	}
}

// RegisterMetrics publishes the store's counters on r under the
// avg_graphstore_* names; the Prometheus endpoint and the JSON metrics
// document read the same atomics, so they can never disagree.
func (s *Store) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("avg_graphstore_hits_total", "Graph store hits (memory or singleflight join).", s.hits.Load)
	r.CounterFunc("avg_graphstore_misses_total", "Graph store misses (disk load or generator build required).", s.misses.Load)
	r.CounterFunc("avg_graphstore_builds_total", "Graph generator invocations.", s.builds.Load)
	r.CounterFunc("avg_graphstore_loads_total", "Graphs decoded from disk artifacts instead of built.", s.loads.Load)
	r.CounterFunc("avg_graphstore_evictions_total", "In-memory LRU evictions.", s.mem.Evictions)
	r.CounterFunc("avg_graphstore_quarantined_total", "Disk artifacts that failed verification and were quarantined.", s.disk.Quarantined)
	r.GaugeFunc("avg_graphstore_entries", "Graphs currently resident in memory.", func() float64 { return float64(s.Len()) })
	r.GaugeFunc("avg_graphstore_bytes", "Estimated bytes of graphs resident in memory (the LRU budget's fill level).", func() float64 {
		return float64(s.mem.Cost())
	})
}
