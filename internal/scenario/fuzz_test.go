package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeSpec drives a /v1/run body through what avgserve does with it
// before any work starts: the strict decode into a Spec, Normalize and
// Key. None of them may panic, and a spec they accept must be within the
// server's bounds and normalize to itself: its normalized form keeps its
// key, survives a JSON round trip with the same key, and names a
// registered algorithm. Seeds: every spec in campaigns/*.json, plus bodies
// each step must refuse.
func FuzzDecodeSpec(f *testing.F) {
	for _, name := range []string{"paper.json", "experiments.json"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "campaigns", name))
		if err != nil {
			f.Fatal(err)
		}
		var doc struct {
			Scenarios []struct {
				Spec json.RawMessage `json:"spec"`
			} `json:"scenarios"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			f.Fatal(err)
		}
		for _, sc := range doc.Scenarios {
			f.Add([]byte(sc.Spec))
		}
	}
	for _, bad := range []string{
		`{"graph":"cycle","params":{"n":16},"algorithm":"mis/luby"} {}`,
		`{"graph":"cycle","algorithm":"mis/luby","extra":1}`,
		`{"graph":"cycle","params":{"n":16},"algorithm":"mis/luby","trials":5000}`,
		`{"graph":"cycle","algorithm":"mis/luby","sweep":{"param":"n","values":[]}}`,
		`{"graph":"cycle","algorithm":"mis/luby","sweep":{"param":"q","values":[8]}}`,
		`{"graph":"nope","algorithm":"mis/luby"}`,
	} {
		f.Add([]byte(bad))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var s Spec
		if err := DecodeStrict(body, &s); err != nil {
			return
		}
		n, err := s.Normalize()
		if err != nil {
			if _, kerr := s.Key(); kerr == nil {
				t.Fatalf("Key accepted a spec Normalize refuses (%v)", err)
			}
			return
		}
		key, err := s.Key()
		if err != nil {
			t.Fatalf("Key refused a normalized spec: %v", err)
		}
		if n.Trials < 1 || n.Trials > MaxTrials || n.Rows() < 1 || n.Rows() > MaxSweepValues ||
			n.Trials*n.Rows() > MaxTotalTrials {
			t.Fatalf("accepted %d trials × %d rows, outside the bounds", n.Trials, n.Rows())
		}
		if again, err := n.Key(); err != nil || again != key {
			t.Fatalf("normalized spec has key %q (%v), want %q", again, err, key)
		}
		data, err := json.Marshal(n)
		if err != nil {
			t.Fatalf("marshal normalized spec: %v", err)
		}
		var back Spec
		if err := DecodeStrict(data, &back); err != nil {
			t.Fatalf("normalized spec does not decode: %v\n%s", err, data)
		}
		if again, err := back.Key(); err != nil || again != key {
			t.Fatalf("round-tripped spec has key %q (%v), want %q\n%s", again, err, key, data)
		}
		if _, err := n.ChunkChecker(); err != nil {
			t.Fatalf("accepted spec names no algorithm: %v", err)
		}
	})
}
