package resultstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"avgloc/internal/cache"
)

func TestGetPutRoundTrip(t *testing.T) {
	s, err := New(4, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("aa-s1"); ok {
		t.Fatal("empty store reported a hit")
	}
	want := []byte(`{"hash":"aa"}`)
	if err := s.Put("aa-s1", want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("aa-s1")
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("round trip lost data: %q ok=%v", got, ok)
	}
	// Mutating the returned slice must not corrupt the store.
	got[0] = 'X'
	again, _ := s.Get("aa-s1")
	if !bytes.Equal(again, want) {
		t.Fatal("store aliases caller memory")
	}
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats wrong: %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	s, err := New(2, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(fmt.Sprintf("%02d-s0", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d, want 2", s.Len())
	}
	if _, ok := s.Get("00-s0"); ok {
		t.Fatal("oldest entry survived eviction")
	}
	// Touch 01 so 02 is evicted next.
	if _, ok := s.Get("01-s0"); !ok {
		t.Fatal("entry 01 missing")
	}
	if err := s.Put("03-s0", []byte{3}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("02-s0"); ok {
		t.Fatal("LRU did not evict the least recently used entry")
	}
	if _, ok := s.Get("01-s0"); !ok {
		t.Fatal("recently used entry was evicted")
	}
}

func TestDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	s, err := New(2, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("persisted report\n")
	if err := s.Put("ab12-s7", want); err != nil {
		t.Fatal(err)
	}
	// Evict it from memory; disk must still serve it.
	s.Put("cc-s0", []byte("a"))
	s.Put("dd-s0", []byte("b"))
	if got, ok := s.Get("ab12-s7"); !ok || !bytes.Equal(got, want) {
		t.Fatalf("disk fallback failed: %q ok=%v", got, ok)
	}

	// A fresh store over the same directory sees the entry (restart case).
	s2, err := New(2, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get("ab12-s7"); !ok || !bytes.Equal(got, want) {
		t.Fatalf("restart lost the entry: %q ok=%v", got, ok)
	}
}

// TestDiskTierBounded: the disk tier evicts oldest files beyond
// cache.DiskFactor × capacity, so -cache-dir cannot grow without bound.
func TestDiskTierBounded(t *testing.T) {
	dir := t.TempDir()
	s, err := New(1, dir) // disk bound = cache.DiskFactor = 16 files
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := s.Put(fmt.Sprintf("%03d-s0", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) > cache.DiskFactor {
		t.Fatalf("disk tier holds %d files, want <= %d", len(files), cache.DiskFactor)
	}
	// Newest key survives on disk, oldest is gone.
	if _, ok := s.Get("039-s0"); !ok {
		t.Fatal("newest disk entry missing")
	}
	s2, err := New(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get("000-s0"); ok {
		t.Fatal("evicted disk entry still served after restart")
	}
}

// TestDiskFallbackRegistersKey is the regression test for the out-of-band
// file bug: a cache file created after the startup scan is admitted to
// memory by Get, and must also join the disk-tier bookkeeping — otherwise
// the disk tier can never prune it and the disk bound silently leaks.
func TestDiskFallbackRegistersKey(t *testing.T) {
	dir := t.TempDir()
	s, err := New(1, dir) // disk bound = cache.DiskFactor = 16 files
	if err != nil {
		t.Fatal(err)
	}
	// The file appears after the startup scan (another writer, an operator
	// copy) — the store learns of it only through the Get fallback. It must
	// carry the checksum framing or it would be quarantined, not admitted.
	outOfBand := "00ab-s3"
	if err := os.WriteFile(s.disk.Path(outOfBand), cache.Seal(format.Magic, []byte("out of band")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(outOfBand); !ok {
		t.Fatal("disk fallback missed the out-of-band file")
	}
	if !s.disk.Has(outOfBand) {
		t.Fatal("disk fallback admitted the file without registering it in the disk tier")
	}
	// Push the disk tier past its bound: the out-of-band file is the
	// oldest registered key, so it must be evicted — before the fix it
	// survived every prune.
	for i := 0; i < cache.DiskFactor+4; i++ {
		if err := s.Put(fmt.Sprintf("%03d-s0", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(s.disk.Path(outOfBand)); !os.IsNotExist(err) {
		t.Fatalf("out-of-band file survived disk pruning (err=%v)", err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) > cache.DiskFactor {
		t.Fatalf("disk tier holds %d files, want <= %d", len(files), cache.DiskFactor)
	}
}

// corruptOnDisk evicts key from memory (so the next Get must consult disk)
// and rewrites its file through mutate. It empties the whole memory tier,
// keeping the capacity of 2 every caller's store has.
func corruptOnDisk(t *testing.T, s *Store, key string, mutate func([]byte) []byte) {
	t.Helper()
	s.mem = cache.NewLRU[[]byte](2)
	raw, err := os.ReadFile(s.disk.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.disk.Path(key), mutate(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptDiskEntryQuarantined: every corruption class — a flipped bit,
// a torn (truncated) write, a legacy file without the checksum header — is
// quarantined on read and reported as a miss, never served; and the key is
// immediately writable again (re-execution repairs the cache).
func TestCorruptDiskEntryQuarantined(t *testing.T) {
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bitflip", func(raw []byte) []byte {
			out := append([]byte(nil), raw...)
			out[len(out)-1] ^= 0x40
			return out
		}},
		{"torn", func(raw []byte) []byte { return raw[:len(raw)/2] }},
		{"legacy", func([]byte) []byte { return []byte(`{"no":"header"}`) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := New(2, dir)
			if err != nil {
				t.Fatal(err)
			}
			key := "ab12-s7"
			if err := s.Put(key, []byte("good payload")); err != nil {
				t.Fatal(err)
			}
			corruptOnDisk(t, s, key, tc.mutate)
			if _, ok := s.Get(key); ok {
				t.Fatal("corrupt disk entry was served")
			}
			if st := s.Stats(); st.Quarantined != 1 {
				t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
			}
			if _, err := os.Stat(s.disk.Path(key)); !os.IsNotExist(err) {
				t.Fatalf("corrupt file still in cache dir (err=%v)", err)
			}
			qpath := filepath.Join(dir, QuarantineDir, key+".json")
			if _, err := os.Stat(qpath); err != nil {
				t.Fatalf("corrupt file not in quarantine: %v", err)
			}
			// The key is re-executable: a fresh Put round-trips through disk.
			if err := s.Put(key, []byte("recomputed")); err != nil {
				t.Fatal(err)
			}
			corruptOnDisk(t, s, key, func(raw []byte) []byte { return raw })
			if got, ok := s.Get(key); !ok || !bytes.Equal(got, []byte("recomputed")) {
				t.Fatalf("re-put after quarantine not served: %q ok=%v", got, ok)
			}
		})
	}
}

// TestTamperDiskWrite: the chaos hook can corrupt or drop disk writes; the
// checksum layer turns corrupted writes into quarantined misses and dropped
// writes into plain misses, while the memory tier stays pristine.
func TestTamperDiskWrite(t *testing.T) {
	dir := t.TempDir()
	mode := "corrupt"
	s, err := NewWithOptions(1, dir, Options{
		TamperDiskWrite: func(key string, raw []byte) ([]byte, bool) {
			switch mode {
			case "corrupt":
				out := append([]byte(nil), raw...)
				out[len(out)-1] ^= 1
				return out, false
			case "drop":
				return nil, true
			default:
				return raw, false
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("aa-s1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Memory tier serves the pristine payload despite the corrupted file.
	if got, ok := s.Get("aa-s1"); !ok || !bytes.Equal(got, []byte("v1")) {
		t.Fatalf("memory tier polluted: %q ok=%v", got, ok)
	}
	s.Put("bb-s1", []byte("evictor")) // push aa-s1 out of memory (cap 1)
	if _, ok := s.Get("aa-s1"); ok {
		t.Fatal("corrupted disk write was served")
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
	}

	mode = "drop"
	if err := s.Put("cc-s1", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.disk.Path("cc-s1")); !os.IsNotExist(err) {
		t.Fatalf("dropped write produced a file (err=%v)", err)
	}
	s.Put("dd-s1", []byte("evictor2"))
	if _, ok := s.Get("cc-s1"); ok {
		t.Fatal("dropped write somehow served from disk")
	}
}

// TestQuarantineNotRescanned: quarantined files are not picked up by a
// restart's directory scan.
func TestQuarantineNotRescanned(t *testing.T) {
	dir := t.TempDir()
	s, err := New(2, dir)
	if err != nil {
		t.Fatal(err)
	}
	key := "ee-s2"
	if err := s.Put(key, []byte("x")); err != nil {
		t.Fatal(err)
	}
	corruptOnDisk(t, s, key, func(raw []byte) []byte { return raw[:3] })
	if _, ok := s.Get(key); ok {
		t.Fatal("torn entry served")
	}
	s2, err := New(2, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(key); ok {
		t.Fatal("quarantined file served after restart")
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	s, err := New(2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "../escape", "UPPER", "a/b", "a b"} {
		if err := s.Put(key, []byte("x")); err == nil {
			t.Errorf("key %q accepted", key)
		}
		if _, ok := s.Get(key); ok {
			t.Errorf("key %q readable", key)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, err := New(8, "")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := fmt.Sprintf("%02d-s0", w%4)
			for i := 0; i < 200; i++ {
				s.Put(key, []byte{byte(w)})
				s.Get(key)
			}
		}(w)
	}
	wg.Wait()
	if s.Len() > 8 {
		t.Fatalf("len %d exceeds capacity", s.Len())
	}
}

// TestDiskFormatPinned pins the on-disk bytes: <key>.json holding
// "avgstore1 " + hex(sha256(payload)) + "\n" + payload. A cache directory
// written by an older build stays readable only while this holds, so both
// directions are checked: what Put writes, and a hand-built file being
// served.
func TestDiskFormatPinned(t *testing.T) {
	seal := func(payload string) []byte {
		sum := sha256.Sum256([]byte(payload))
		return []byte("avgstore1 " + hex.EncodeToString(sum[:]) + "\n" + payload)
	}
	dir := t.TempDir()
	s, err := New(2, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("ab12-s7", []byte(`{"hash":"ab12"}`)); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "ab12-s7.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := seal(`{"hash":"ab12"}`); !bytes.Equal(got, want) {
		t.Fatalf("disk entry\n%q\nwant\n%q", got, want)
	}
	if err := os.WriteFile(filepath.Join(dir, "cd34-s1.json"), seal("hand built"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := New(2, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get("cd34-s1"); !ok || string(got) != "hand built" {
		t.Fatalf("hand-built entry not served: %q ok=%v", got, ok)
	}
}
