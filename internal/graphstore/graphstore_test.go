package graphstore

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"avgloc/internal/cache"
	"avgloc/internal/registry"
)

func ctx() context.Context { return context.Background() }

// TestKeyCanonical pins the key scheme: insertion order of the parameter
// map never changes the key (the scenario-hash stable-ordering machinery),
// normalization fills defaults so partial and explicit-default parameter
// sets collide, and unknown families or parameters are errors.
func TestKeyCanonical(t *testing.T) {
	a := registry.Values{}
	a["rows"] = 8
	a["cols"] = 16
	b := registry.Values{}
	b["cols"] = 16
	b["rows"] = 8
	ka, err := Key("grid", a, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := Key("grid", b, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatalf("permuted params split the key: %s vs %s", ka, kb)
	}
	if !validKey(ka) {
		t.Fatalf("key %q is not a 64-hex content address", ka)
	}
	// Defaults normalize in: {"n": 1024} and {} address the same cycle.
	kd, err := Key("cycle", registry.Values{"n": 1024}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	ke, err := Key("cycle", nil, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if kd != ke {
		t.Fatalf("explicit default split the key: %s vs %s", kd, ke)
	}
	if _, err := Key("nope", nil, 1, 2); err == nil {
		t.Fatal("unknown family accepted")
	}
	if _, err := Key("cycle", registry.Values{"bogus": 1}, 1, 2); err == nil {
		t.Fatal("unknown parameter accepted")
	}
}

// TestKeySeedScope pins seed handling: deterministic families share one
// artifact across seeds (the rng is ignored by contract), random families
// key on the exact PCG seed pair.
func TestKeySeedScope(t *testing.T) {
	k1, _ := Key("cycle", nil, 1, 2)
	k2, _ := Key("cycle", nil, 3, 4)
	if k1 != k2 {
		t.Fatalf("deterministic family keyed on seed: %s vs %s", k1, k2)
	}
	r1, _ := Key("tree", registry.Values{"n": 64}, 1, 2)
	r2, _ := Key("tree", registry.Values{"n": 64}, 3, 4)
	if r1 == r2 {
		t.Fatal("random family ignored its seed")
	}
	r3, _ := Key("tree", registry.Values{"n": 64}, 1, 2)
	if r1 != r3 {
		t.Fatal("equal seeds produced different keys")
	}
}

// TestGetMemoryHit proves the second Get of a key is served from memory:
// the same *graph.Graph pointer, one build.
func TestGetMemoryHit(t *testing.T) {
	s, err := New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	g1, err := s.Get(ctx(), "tree", registry.Values{"n": 128}, 7, 9)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := s.Get(ctx(), "tree", registry.Values{"n": 128}, 7, 9)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("memory hit returned a different graph value")
	}
	st := s.Stats()
	if st.Builds != 1 || st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want builds=1 hits=1 misses=1 entries=1", st)
	}
}

// TestSingleflight hammers one cold key from many goroutines: every caller
// gets the same graph and the generator runs exactly once.
func TestSingleflight(t *testing.T) {
	s, err := New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	const callers = 32
	var wg sync.WaitGroup
	graphs := make([]any, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := s.Get(ctx(), "ba", registry.Values{"n": 512, "m": 3}, 11, 13)
			if err != nil {
				t.Error(err)
				return
			}
			graphs[i] = g
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if graphs[i] != graphs[0] {
			t.Fatal("concurrent callers got different graph values")
		}
	}
	if st := s.Stats(); st.Builds != 1 {
		t.Fatalf("builds = %d, want 1 (singleflight)", st.Builds)
	}
}

// TestDiskRoundTrip proves the disk tier replaces generator runs: a fresh
// store over a warm directory serves a deep-equal graph with zero builds.
func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s1.Get(ctx(), "kmw", registry.Values{"k": 1, "beta": 4, "q": 4}, 21, 22)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get(ctx(), "kmw", registry.Values{"k": 1, "beta": 4, "q": 4}, 21, 22)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("disk-loaded graph differs from built graph")
	}
	st := s2.Stats()
	if st.Builds != 0 || st.Loads != 1 {
		t.Fatalf("stats %+v, want builds=0 loads=1", st)
	}
}

// TestQuarantineRebuild corrupts the artifact on disk and asserts the store
// quarantines it, rebuilds a deep-equal graph, and rewrites a good artifact.
func TestQuarantineRebuild(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s1.Get(ctx(), "caterpillar", registry.Values{"n": 96, "spine": 24}, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.csr"))
	if err != nil || len(files) != 1 {
		t.Fatalf("artifacts on disk: %v (err %v)", files, err)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(files[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := New(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get(ctx(), "caterpillar", registry.Values{"n": 96, "spine": 24}, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("rebuilt graph differs from original")
	}
	st := s2.Stats()
	if st.Quarantined != 1 || st.Builds != 1 || st.Loads != 0 {
		t.Fatalf("stats %+v, want quarantined=1 builds=1 loads=0", st)
	}
	q, _ := filepath.Glob(filepath.Join(dir, QuarantineDir, "*.csr"))
	if len(q) != 1 {
		t.Fatalf("quarantine holds %d files, want 1", len(q))
	}
	// The rebuild rewrote a good artifact: a third store loads it cleanly.
	s3, err := New(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s3.Get(ctx(), "caterpillar", registry.Values{"n": 96, "spine": 24}, 5, 6); err != nil {
		t.Fatal(err)
	}
	if st := s3.Stats(); st.Loads != 1 || st.Builds != 0 {
		t.Fatalf("rewrite not loadable: stats %+v", st)
	}
}

// TestTamperDiskWrite drives the chaos hook: a torn artifact write must
// surface as a quarantined rebuild on the next cold store, never an error
// or a wrong graph.
func TestTamperDiskWrite(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewWithOptions(0, dir, Options{
		TamperDiskWrite: func(key string, raw []byte) ([]byte, bool) {
			return raw[:len(raw)/3], false // torn write
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := s1.Get(ctx(), "gnp", registry.Values{"n": 128, "p": 0.05}, 31, 32)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get(ctx(), "gnp", registry.Values{"n": 128, "p": 0.05}, 31, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("graph rebuilt after torn write differs")
	}
	if st := s2.Stats(); st.Quarantined != 1 || st.Builds != 1 {
		t.Fatalf("stats %+v, want quarantined=1 builds=1", st)
	}
}

// TestDroppedWrite covers the drop branch of the tamper hook: the artifact
// never lands, so a fresh store simply rebuilds (no quarantine).
func TestDroppedWrite(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewWithOptions(0, dir, Options{
		TamperDiskWrite: func(key string, raw []byte) ([]byte, bool) { return nil, true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Get(ctx(), "cycle", registry.Values{"n": 48}, 1, 2); err != nil {
		t.Fatal(err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*.csr")); len(files) != 0 {
		t.Fatalf("dropped write landed: %v", files)
	}
	s2, err := New(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Get(ctx(), "cycle", registry.Values{"n": 48}, 1, 2); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Builds != 1 || st.Quarantined != 0 {
		t.Fatalf("stats %+v, want builds=1 quarantined=0", st)
	}
}

// TestByteBudgetEviction fills a tiny store with distinct graphs and
// asserts cold-end eviction under the byte budget, with the newest entry
// always retained.
func TestByteBudgetEviction(t *testing.T) {
	s, err := New(1, "") // 1 byte: every admit evicts everything else
	if err != nil {
		t.Fatal(err)
	}
	for n := 16; n <= 64; n += 16 {
		if _, err := s.Get(ctx(), "cycle", registry.Values{"n": float64(n)}, 1, 2); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1 under a 1-byte budget", st.Entries)
	}
	if st.Evictions != 3 {
		t.Fatalf("evictions = %d, want 3", st.Evictions)
	}
	// The retained entry is the most recent one: a repeat Get hits.
	if _, err := s.Get(ctx(), "cycle", registry.Values{"n": 64}, 1, 2); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(); got.Hits != st.Hits+1 {
		t.Fatalf("newest entry was evicted: stats %+v", got)
	}
}

// TestBuildErrorNotCached asserts invalid parameter sets fail every time
// (errors are never admitted) and leave no entry behind.
func TestBuildErrorNotCached(t *testing.T) {
	s, err := New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Get(ctx(), "regular", registry.Values{"n": 9, "d": 3}, 1, 2); err == nil {
			t.Fatal("odd n·d regular graph accepted")
		}
	}
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("error cached: %+v", st)
	}
	if !strings.Contains(format.Ext, ".csr") {
		t.Fatal("path extension changed")
	}
}

// artifacts lists the .csr files in dir by key, with their total size.
func artifacts(t *testing.T, dir string) (map[string]bool, int64) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.csr"))
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[string]bool)
	var total int64
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		keys[strings.TrimSuffix(filepath.Base(p), ".csr")] = true
		total += info.Size()
	}
	return keys, total
}

func cycleKey(t *testing.T, n int) string {
	t.Helper()
	k, err := Key("cycle", registry.Values{"n": float64(n)}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestDiskFormatPinned pins the on-disk bytes: <key>.csr holding
// "avggraph1 " + hex(sha256(csr)) + "\n" + csr, csr being the graph's
// MarshalBinary image. A graph cache directory written by an older build
// stays readable only while this holds.
func TestDiskFormatPinned(t *testing.T) {
	dir := t.TempDir()
	s, err := New(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.Get(ctx(), "cycle", registry.Values{"n": 8}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	csr, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(csr)
	want := append([]byte("avggraph1 "+hex.EncodeToString(sum[:])+"\n"), csr...)
	got, err := os.ReadFile(filepath.Join(dir, cycleKey(t, 8)+".csr"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("artifact bytes differ from the hand-built framing:\n%q\nwant\n%q", got, want)
	}
}

// TestDiskTierBounded: the disk tier prunes the oldest artifacts past
// cache.DiskFactor × maxBytes file bytes, and never the newest, even when
// that one alone is over the bound.
func TestDiskTierBounded(t *testing.T) {
	dir := t.TempDir()
	const maxBytes = 128 // disk bound = 16 × 128 = 2048 bytes: three small cycles
	s, err := New(maxBytes, dir)
	if err != nil {
		t.Fatal(err)
	}
	for n := 8; n <= 14; n++ {
		if _, err := s.Get(ctx(), "cycle", registry.Values{"n": float64(n)}, 1, 2); err != nil {
			t.Fatal(err)
		}
		keys, total := artifacts(t, dir)
		if total > cache.DiskFactor*maxBytes {
			t.Fatalf("after cycle %d the disk tier holds %d bytes, want <= %d", n, total, cache.DiskFactor*maxBytes)
		}
		if !keys[cycleKey(t, n)] {
			t.Fatalf("newest artifact (cycle %d) was pruned", n)
		}
	}
	if keys, _ := artifacts(t, dir); keys[cycleKey(t, 8)] || len(keys) < 2 {
		t.Fatalf("oldest artifact survived or the bound kept too few: %v", keys)
	}
	// An artifact over the bound on its own is still kept, alone.
	if _, err := s.Get(ctx(), "cycle", registry.Values{"n": 64}, 1, 2); err != nil {
		t.Fatal(err)
	}
	keys, total := artifacts(t, dir)
	if len(keys) != 1 || !keys[cycleKey(t, 64)] || total <= cache.DiskFactor*maxBytes {
		t.Fatalf("want only the oversized newest artifact on disk, got %v (%d bytes)", keys, total)
	}
	// A restart indexes it and loads it instead of building.
	s2, err := New(maxBytes, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Get(ctx(), "cycle", registry.Values{"n": 64}, 1, 2); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Loads != 1 || st.Builds != 0 {
		t.Fatalf("stats %+v, want loads=1 builds=0", st)
	}
}

// TestDiskFallbackRegistersKey: an artifact that appears after the startup
// scan (another process, an operator copy) is loaded by Get and joins the
// disk-tier bookkeeping, so pruning can still evict it.
func TestDiskFallbackRegistersKey(t *testing.T) {
	dir := t.TempDir()
	s, err := New(64, dir) // disk bound = 1024 bytes: two small cycles
	if err != nil {
		t.Fatal(err)
	}
	g, err := Shared().Get(ctx(), "cycle", registry.Values{"n": 8}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	csr, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	outOfBand := cycleKey(t, 8)
	if err := os.WriteFile(filepath.Join(dir, outOfBand+".csr"), cache.Seal(format.Magic, csr), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ctx(), "cycle", registry.Values{"n": 8}, 1, 2); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Loads != 1 || st.Builds != 0 {
		t.Fatalf("stats %+v, want the out-of-band artifact loaded (loads=1 builds=0)", st)
	}
	if !s.disk.Has(outOfBand) {
		t.Fatal("disk fallback loaded the artifact without registering it in the disk tier")
	}
	for n := 9; n <= 12; n++ {
		if _, err := s.Get(ctx(), "cycle", registry.Values{"n": float64(n)}, 1, 2); err != nil {
			t.Fatal(err)
		}
	}
	if keys, _ := artifacts(t, dir); keys[outOfBand] {
		t.Fatal("out-of-band artifact survived disk pruning")
	}
}
