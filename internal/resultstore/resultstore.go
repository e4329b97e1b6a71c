// Package resultstore caches serialized scenario outcomes keyed by the
// scenario content key (hash + seed, see internal/scenario.Spec.Key). The
// cached value is the exact byte rendering of the outcome, so a cache hit
// is served bit-identically to the run that produced it. The store is a
// bounded in-memory LRU over an optional write-through disk tier, which
// lets a restarted server keep serving previously computed scenarios. Both
// tiers are internal/cache's, shared with internal/graphstore: memory holds
// the configured number of entries, disk 16× as many files (oldest files
// evicted first).
//
// Disk entries are checksummed ("avgstore1 <sha256>" header, <key>.json):
// a file that fails verification — a torn write, a bit flip, an operator
// truncation — is moved to a quarantine subdirectory and reported as a miss
// instead of being served. A corrupt cache entry therefore costs one
// re-execution, never a poisoned read.
package resultstore

import (
	"fmt"
	"sync/atomic"

	"avgloc/internal/cache"
	"avgloc/internal/obs"
)

// Stats counts store traffic.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Puts      int64 `json:"puts"`
	Evictions int64 `json:"evictions"`
	// Quarantined counts disk entries that failed checksum verification and
	// were moved to the quarantine directory instead of being served.
	Quarantined int64 `json:"quarantined"`
	Entries     int   `json:"entries"`
}

// Options carries the optional knobs of NewWithOptions.
type Options struct {
	// TamperDiskWrite, if non-nil, intercepts the sealed bytes of every disk
	// write (see cache.Tamper); internal/chaos injects faults through it.
	TamperDiskWrite cache.Tamper
}

// Store is a bounded LRU of serialized reports. The zero value is not
// usable; construct with New.
type Store struct {
	mem  *cache.LRU[[]byte] // every entry costs 1
	disk *cache.Dir         // nil = memory only

	// Traffic counters are atomics: they are read by the metrics registry
	// (CounterFunc) from scrape handlers that must never contend with a
	// store lock.
	hits   atomic.Int64
	misses atomic.Int64
	puts   atomic.Int64
}

// QuarantineDir is the subdirectory of the cache directory that corrupt
// files are moved into.
const QuarantineDir = cache.QuarantineDir

var format = cache.Format{Magic: "avgstore1 ", Ext: ".json", Valid: validKey}

// New returns a store holding at most capacity entries in memory. If dir is
// non-empty it is created and every Put is also written there (one file per
// key, atomic rename, checksummed), and Get falls back to it on memory
// misses.
func New(capacity int, dir string) (*Store, error) {
	return NewWithOptions(capacity, dir, Options{})
}

// NewWithOptions is New with fault-injection hooks (see Options).
func NewWithOptions(capacity int, dir string, opts Options) (*Store, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("resultstore: capacity must be >= 1, got %d", capacity)
	}
	perFile := func(int64) int64 { return 1 }
	disk, err := cache.NewDir(dir, format, cache.DiskFactor*int64(capacity), perFile, opts.TamperDiskWrite)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	return &Store{mem: cache.NewLRU[[]byte](int64(capacity)), disk: disk}, nil
}

// validKey reports whether key is safe as a file name: hex hash + "-s" +
// decimal seed (scenario.Key), optionally followed by a chunk suffix
// "-c<row>-<lo>-<hi>" (scenario.ChunkKey) — the fleet coordinator caches
// chunk partials in the same store as full outcomes. Keys arrive from
// GET /v1/reports/{key}, so the check runs before any path is built.
func validKey(key string) bool {
	if key == "" || len(key) > 128 {
		return false
	}
	for _, c := range key {
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'f', c == '-', c == 's':
		default:
			return false
		}
	}
	return true
}

// Get returns the cached bytes for key. The returned slice is a copy. A
// memory miss consults the disk directory (if configured), verifies the
// entry's checksum, and re-admits it on success; a corrupt file is
// quarantined and reported as a miss.
func (s *Store) Get(key string) ([]byte, bool) {
	val, ok := s.mem.Get(key)
	if !ok {
		found, err := s.disk.Load(key, func(payload []byte) error { val = payload; return nil })
		if ok = found && err == nil; ok {
			s.mem.Add(key, val, 1)
		}
	}
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return append([]byte(nil), val...), true
}

// Put stores val under key, evicting the least recently used entry when the
// store is full, and persists to disk (checksummed) when configured.
func (s *Store) Put(key string, val []byte) error {
	if !validKey(key) {
		return fmt.Errorf("resultstore: invalid key %q", key)
	}
	cp := append([]byte(nil), val...)
	s.mem.Add(key, cp, 1)
	s.puts.Add(1)
	if err := s.disk.Put(key, cp); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	return nil
}

// Len returns the number of in-memory entries.
func (s *Store) Len() int { return s.mem.Len() }

// Stats returns a snapshot of the traffic counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Puts:        s.puts.Load(),
		Evictions:   s.mem.Evictions(),
		Quarantined: s.disk.Quarantined(),
		Entries:     s.Len(),
	}
}

// RegisterMetrics publishes the store's counters on r under the
// avg_store_* names. The registry reads the same atomics Stats snapshots,
// so the Prometheus endpoint and the legacy JSON document can never
// disagree.
func (s *Store) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("avg_store_hits_total", "Result store cache hits (memory or verified disk).", s.hits.Load)
	r.CounterFunc("avg_store_misses_total", "Result store cache misses.", s.misses.Load)
	r.CounterFunc("avg_store_puts_total", "Result store writes.", s.puts.Load)
	r.CounterFunc("avg_store_evictions_total", "In-memory LRU evictions.", s.mem.Evictions)
	r.CounterFunc("avg_store_quarantined_total", "Disk entries that failed checksum verification and were quarantined.", s.disk.Quarantined)
	r.GaugeFunc("avg_store_entries", "In-memory entries currently cached.", func() float64 { return float64(s.Len()) })
}
