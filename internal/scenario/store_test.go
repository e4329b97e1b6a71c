package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"avgloc/internal/graphstore"
	"avgloc/internal/registry"
)

// storeFamilyParams gives every registry family a test-sized parameter set
// (empty = family defaults, already small for the kmw constructions).
var storeFamilyParams = map[string]registry.Values{
	"cycle":              {"n": 32},
	"path":               {"n": 32},
	"star":               {"n": 32},
	"complete":           {"n": 16},
	"complete-bipartite": {"a": 8, "b": 8},
	"grid":               {"rows": 6, "cols": 6},
	"torus":              {"rows": 4, "cols": 4},
	"hypercube":          {"d": 4},
	"tree":               {"n": 32},
	"caterpillar":        {"n": 32, "spine": 8},
	"ba":                 {"n": 32, "m": 2},
	"gnp":                {"n": 32, "p": 0.1},
	"regular":            {"n": 32, "d": 4},
	"kmw":                {},
	"kmw-matching":       {},
	"bipartite-regular":  {"n": 16, "d": 3},
}

// TestRunChunkBytesColdVsWarmEveryFamily is the store half of the CSR
// round-trip property: for EVERY registry family, a chunk executed against
// a cold store (graph built by the generator) and the same chunk executed
// against a warm disk tier (graph decoded from the CSR artifact, zero
// generator invocations) produce byte-identical wire chunks.
func TestRunChunkBytesColdVsWarmEveryFamily(t *testing.T) {
	for _, fam := range registry.Graphs() {
		fam := fam
		t.Run(fam.Name, func(t *testing.T) {
			params, ok := storeFamilyParams[fam.Name]
			if !ok {
				t.Fatalf("family %q missing from storeFamilyParams — add a test-sized entry", fam.Name)
			}
			spec := Spec{Graph: fam.Name, Params: params, Algorithm: "mis/luby", Trials: 3, Seed: 17}
			dir := t.TempDir()
			cold, err := graphstore.New(0, dir)
			if err != nil {
				t.Fatal(err)
			}
			want, err := RunChunk(&spec, 0, 0, 3, Options{Parallelism: 2, Graphs: cold})
			if err != nil {
				t.Fatalf("cold RunChunk: %v", err)
			}
			if st := cold.Stats(); st.Builds != 1 {
				t.Fatalf("cold store stats %+v, want builds=1", st)
			}
			warm, err := graphstore.New(0, dir) // cold memory, warm disk
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunChunk(&spec, 0, 0, 3, Options{Parallelism: 2, Graphs: warm})
			if err != nil {
				t.Fatalf("warm RunChunk: %v", err)
			}
			if st := warm.Stats(); st.Builds != 0 || st.Loads != 1 {
				t.Fatalf("warm store stats %+v, want builds=0 loads=1", st)
			}
			a, _ := json.Marshal(want)
			b, _ := json.Marshal(got)
			if !bytes.Equal(a, b) {
				t.Fatalf("warm-store chunk differs from cold-store chunk\ncold: %s\nwarm: %s", a, b)
			}
		})
	}
}

// TestRunByteIdenticalColdWarmStore runs every chunk-suite spec three ways
// — default shared store, explicit cold disk store, fresh store over the
// warm disk tier — and asserts MarshalStable bytes are identical, with the
// warm pass performing zero generator invocations. This is the acceptance
// property: the store must be invisible in the output.
func TestRunByteIdenticalColdWarmStore(t *testing.T) {
	for si := range chunkSpecs {
		spec := chunkSpecs[si]
		t.Run(fmt.Sprintf("spec%d_%s_%s", si, spec.Graph, spec.Algorithm), func(t *testing.T) {
			base, err := Run(&spec, Options{Parallelism: 2})
			if err != nil {
				t.Fatalf("Run (shared store): %v", err)
			}
			baseBytes, _ := base.MarshalStable()
			dir := t.TempDir()
			cold, err := graphstore.New(0, dir)
			if err != nil {
				t.Fatal(err)
			}
			coldOut, err := Run(&spec, Options{Parallelism: 4, Graphs: cold})
			if err != nil {
				t.Fatalf("Run (cold store): %v", err)
			}
			coldBytes, _ := coldOut.MarshalStable()
			if !bytes.Equal(coldBytes, baseBytes) {
				t.Fatal("cold-store run differs from shared-store run")
			}
			warm, err := graphstore.New(0, dir)
			if err != nil {
				t.Fatal(err)
			}
			warmOut, err := Run(&spec, Options{Parallelism: 1, Graphs: warm})
			if err != nil {
				t.Fatalf("Run (warm store): %v", err)
			}
			warmBytes, _ := warmOut.MarshalStable()
			if !bytes.Equal(warmBytes, baseBytes) {
				t.Fatal("warm-store run differs from shared-store run")
			}
			if st := warm.Stats(); st.Builds != 0 || st.Loads == 0 {
				t.Fatalf("warm store stats %+v, want builds=0 loads>0", st)
			}
		})
	}
}

// TestRunSharesGraphsAcrossSeeds pins the cross-seed sharing property of
// deterministic families: two runs of the same cycle spec under different
// master seeds hit one store entry (the artifact's identity omits the seed)
// while still producing different measurement outcomes.
func TestRunSharesGraphsAcrossSeeds(t *testing.T) {
	store, err := graphstore.New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	a := Spec{Graph: "cycle", Params: registry.Values{"n": 40}, Algorithm: "mis/luby", Trials: 3, Seed: 1}
	b := Spec{Graph: "cycle", Params: registry.Values{"n": 40}, Algorithm: "mis/luby", Trials: 3, Seed: 2}
	oa, err := Run(&a, Options{Parallelism: 1, Graphs: store})
	if err != nil {
		t.Fatal(err)
	}
	ob, err := Run(&b, Options{Parallelism: 1, Graphs: store})
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Builds != 1 || st.Hits != 1 {
		t.Fatalf("stats %+v, want builds=1 hits=1 (one shared cycle)", st)
	}
	ab, _ := oa.MarshalStable()
	bb, _ := ob.MarshalStable()
	if bytes.Equal(ab, bb) {
		t.Fatal("different seeds produced identical outcomes")
	}
}
