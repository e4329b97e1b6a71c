package cache

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

// FuzzOpen: the framing parser never panics, and every input it accepts
// under a store's magic re-seals to the same bytes — so Open accepts
// exactly the files Seal writes.
func FuzzOpen(f *testing.F) {
	magics := []string{"avgstore1 ", "avggraph1 "}
	for _, m := range magics {
		f.Add(Seal(m, []byte(`{"hash":"ab12","seed":7}`)))
		f.Add(Seal(m, nil))
	}
	f.Add(Seal("avggraph1 ", []byte("avgcsr\x01\x02\x00\x00\x00\x00\x00\x00\x00")))
	f.Add([]byte("avgstore1 0123abcd"))            // torn header: no newline
	f.Add([]byte(`{"legacy":"no header"}` + "\n")) // pre-checksum file
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, m := range magics {
			payload, err := Open(m, raw)
			if err != nil {
				continue
			}
			if again := Seal(m, payload); !bytes.Equal(again, raw) {
				t.Fatalf("accepted %q under %q, but it re-seals to %q", raw, m, again)
			}
		}
	})
}

// TestConcurrentUse drives one Dir and one LRU from several goroutines, as
// the fleet's workers drive a shared store, and checks both bounds hold
// afterwards.
func TestConcurrentUse(t *testing.T) {
	root := t.TempDir()
	valid := func(key string) bool { return key != "" }
	perFile := func(int64) int64 { return 1 }
	d, err := NewDir(root, Format{Magic: "avgstore1 ", Ext: ".json", Valid: valid}, 4, perFile, nil)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewLRU[[]byte](3)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("k%d", (w+i)%8)
				val := []byte(key)
				if err := d.Put(key, val); err != nil {
					t.Error(err)
					return
				}
				mem.Add(key, val, 1)
				d.Load(key, func(p []byte) error {
					if !bytes.Equal(p, val) {
						return fmt.Errorf("key %s holds %q", key, p)
					}
					return nil
				})
				mem.Get(key)
			}
		}(w)
	}
	wg.Wait()
	if q := d.Quarantined(); q != 0 {
		t.Fatalf("%d verified entries quarantined", q)
	}
	files, err := filepath.Glob(filepath.Join(root, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) > 4 || mem.Len() > 3 || mem.Cost() != int64(mem.Len()) {
		t.Fatalf("bounds broken: %d files (max 4), %d entries costing %d (max 3)", len(files), mem.Len(), mem.Cost())
	}
}
