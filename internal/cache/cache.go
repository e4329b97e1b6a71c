// Package cache is the storage tier both artifact stores share: the result
// cache (internal/resultstore) and the graph artifact store
// (internal/graphstore). It owns two decisions so the stores do not each
// repeat them:
//
//   - Dir, the disk tier: one checksummed file per key, written atomically,
//     indexed oldest-first at open, pruned oldest-first past a bound, and
//     quarantined — moved to <dir>/quarantine/ and counted — when it fails
//     to verify or decode, so a corrupt file costs a recomputation, never a
//     wrong answer.
//   - LRU, the memory tier: a cost-bounded least-recently-used map that
//     never evicts its newest entry.
//
// Every disk file is magic + hex(sha256(payload)) + "\n" + payload. The
// magic names the store ("avgstore1 " for results, "avggraph1 " for
// graphs); a file without that exact framing, a pre-checksum legacy file
// included, fails verification.
package cache

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// QuarantineDir is the subdirectory of a cache directory that corrupt files
// are moved into. Files under it are never read back or pruned: they are
// evidence for the operator and the chaos soak, not cache state.
const QuarantineDir = "quarantine"

// DiskFactor sizes a disk tier relative to its store's memory tier.
const DiskFactor = 16

// Seal frames payload for disk: magic, payload checksum, newline, payload.
// Any later change to the file — header or payload, one bit or a
// truncation — fails Open.
func Seal(magic string, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	out := make([]byte, 0, len(magic)+hex.EncodedLen(len(sum))+1+len(payload))
	out = append(out, magic...)
	out = hex.AppendEncode(out, sum[:])
	out = append(out, '\n')
	return append(out, payload...)
}

// Open verifies raw's framing and checksum under magic and returns the
// payload, a subslice of raw.
func Open(magic string, raw []byte) ([]byte, error) {
	rest, ok := bytes.CutPrefix(raw, []byte(magic))
	if !ok {
		return nil, fmt.Errorf("cache: entry missing %q header", strings.TrimSpace(magic))
	}
	sum, payload, ok := bytes.Cut(rest, []byte{'\n'})
	if !ok {
		return nil, errors.New("cache: entry header truncated")
	}
	want := sha256.Sum256(payload)
	if string(sum) != hex.EncodeToString(want[:]) {
		return nil, errors.New("cache: checksum mismatch")
	}
	return payload, nil
}

// Format is what tells one store's files apart from another's.
type Format struct {
	Magic string                // heads every file, e.g. "avgstore1 "
	Ext   string                // file name suffix after the key, e.g. ".json"
	Valid func(key string) bool // keys safe to use as file names
}

// Tamper intercepts the sealed bytes of every disk write: it may mutate
// them (bit flips), shorten them (torn writes) or drop the write (drop =
// true: the file never appears). It exists for deterministic fault
// injection (internal/chaos); checksum verification must turn every such
// corruption into a quarantined miss.
type Tamper func(key string, raw []byte) (out []byte, drop bool)

// Dir is a checksummed, bounded, quarantining directory of cache files. A
// nil *Dir is the memory-only configuration: it holds nothing, and every
// method is a no-op that reports a miss.
type Dir struct {
	root   string
	format Format
	bound  int64
	cost   func(size int64) int64
	tamper Tamper

	quarantined atomic.Int64

	mu    sync.Mutex
	order []string // oldest first
	costs map[string]int64
	total int64
}

// NewDir creates root if needed and indexes the files already in it,
// oldest first, so a restarted process continues the previous eviction
// order. The directory holds files while the sum of cost(file size) stays
// within bound; past it the oldest are removed, never the newest. An empty
// root returns a nil *Dir.
func NewDir(root string, format Format, bound int64, cost func(size int64) int64, tamper Tamper) (*Dir, error) {
	if root == "" {
		return nil, nil
	}
	d := &Dir{root: root, format: format, bound: bound, cost: cost, tamper: tamper, costs: make(map[string]int64)}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	type aged struct {
		key       string
		mod, size int64
	}
	var files []aged
	for _, e := range entries {
		key, ok := strings.CutSuffix(e.Name(), format.Ext)
		if e.IsDir() || !ok || !format.Valid(key) {
			continue
		}
		if info, err := e.Info(); err == nil {
			files = append(files, aged{key, info.ModTime().UnixNano(), info.Size()})
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod < files[j].mod })
	for _, f := range files {
		d.registerLocked(f.key, f.size)
	}
	return d, nil
}

// Path is the file of key. Callers check the key with Format.Valid first.
func (d *Dir) Path(key string) string {
	return filepath.Join(d.root, key+d.format.Ext)
}

// Load reads key's file, verifies it and hands the payload to decode. It
// reports whether a file was there. A file that fails verification or
// decode is quarantined and its error returned; a good one joins the
// bookkeeping if it appeared after NewDir (another writer, an operator
// copy), so it cannot leak past the bound.
func (d *Dir) Load(key string, decode func(payload []byte) error) (found bool, err error) {
	if d == nil || !d.format.Valid(key) {
		return false, nil
	}
	raw, err := os.ReadFile(d.Path(key))
	if err != nil {
		return false, nil
	}
	payload, err := Open(d.format.Magic, raw)
	if err == nil {
		err = decode(payload)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err != nil {
		d.quarantineLocked(key)
		return true, err
	}
	if _, ok := d.costs[key]; !ok {
		d.registerLocked(key, int64(len(raw)))
	}
	return true, nil
}

// Put seals payload and writes it as key's file atomically (temp file +
// rename), then prunes past the bound.
func (d *Dir) Put(key string, payload []byte) error {
	if d == nil {
		return nil
	}
	if !d.format.Valid(key) {
		return fmt.Errorf("cache: invalid key %q", key)
	}
	raw := Seal(d.format.Magic, payload)
	if d.tamper != nil {
		var drop bool
		if raw, drop = d.tamper(key, raw); drop {
			return nil // injected "missing file": the write never lands
		}
	}
	tmp, err := os.CreateTemp(d.root, "put-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(raw)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), d.Path(key))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	d.mu.Lock()
	d.registerLocked(key, int64(len(raw)))
	d.mu.Unlock()
	return nil
}

// Has reports whether key's file is in the bookkeeping.
func (d *Dir) Has(key string) bool {
	if d == nil {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.costs[key]
	return ok
}

// Quarantined counts the files moved to QuarantineDir.
func (d *Dir) Quarantined() int64 {
	if d == nil {
		return 0
	}
	return d.quarantined.Load()
}

// registerLocked records key's file (new, or rewritten in place) and
// removes the oldest files past the bound, always keeping the newest.
// Caller holds d.mu, or has sole access during NewDir.
func (d *Dir) registerLocked(key string, size int64) {
	if old, ok := d.costs[key]; ok {
		d.total -= old
	} else {
		d.order = append(d.order, key)
	}
	d.costs[key] = d.cost(size)
	d.total += d.costs[key]
	for d.total > d.bound && len(d.order) > 1 {
		oldest := d.order[0]
		d.order = d.order[1:]
		d.total -= d.costs[oldest]
		delete(d.costs, oldest)
		os.Remove(d.Path(oldest))
	}
}

// quarantineLocked moves key's file into QuarantineDir and drops it from
// the bookkeeping, so the key is recomputed on its next request. Caller
// holds d.mu.
func (d *Dir) quarantineLocked(key string) {
	qdir := filepath.Join(d.root, QuarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		os.Rename(d.Path(key), filepath.Join(qdir, key+d.format.Ext))
	} else {
		os.Remove(d.Path(key))
	}
	if c, ok := d.costs[key]; ok {
		d.total -= c
		delete(d.costs, key)
		for i, k := range d.order {
			if k == key {
				d.order = append(d.order[:i], d.order[i+1:]...)
				break
			}
		}
	}
	d.quarantined.Add(1)
}

// LRU is a least-recently-used map bounded by the sum of its entries'
// costs. The newest entry is never evicted, so one entry costlier than the
// bound still caches: the bound is soft, max(bound, newest entry's cost).
// Safe for concurrent use.
type LRU[V any] struct {
	mu    sync.Mutex
	bound int64
	cost  int64
	ll    *list.List // front = most recently used
	index map[string]*list.Element

	evictions atomic.Int64
}

type lruEntry[V any] struct {
	key  string
	val  V
	cost int64
}

// NewLRU returns an empty LRU holding entries up to a total cost of bound.
func NewLRU[V any](bound int64) *LRU[V] {
	return &LRU[V]{bound: bound, ll: list.New(), index: make(map[string]*list.Element)}
}

// Get returns key's value and marks it most recently used.
func (c *LRU[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// Add inserts or replaces key's value as the most recently used entry and
// evicts from the cold end past the bound.
func (c *LRU[V]) Add(key string, val V, cost int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[key]; ok {
		e := el.Value.(*lruEntry[V])
		c.cost += cost - e.cost
		e.val, e.cost = val, cost
		c.ll.MoveToFront(el)
	} else {
		c.index[key] = c.ll.PushFront(&lruEntry[V]{key, val, cost})
		c.cost += cost
	}
	for c.cost > c.bound && c.ll.Len() > 1 {
		oldest := c.ll.Remove(c.ll.Back()).(*lruEntry[V])
		delete(c.index, oldest.key)
		c.cost -= oldest.cost
		c.evictions.Add(1)
	}
}

// Len returns the number of entries.
func (c *LRU[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Cost returns the total cost of the entries.
func (c *LRU[V]) Cost() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cost
}

// Evictions counts entries evicted past the bound.
func (c *LRU[V]) Evictions() int64 { return c.evictions.Load() }
