package graph_test

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"testing"

	"avgloc/internal/graph"
	"avgloc/internal/registry"
)

// TestMarshalRoundTripFamilies builds every registry family at its default
// parameters and asserts the binary CSR image decodes to a deep-equal graph
// — same CSR arrays, ports, edge ids and cached max degree, not merely an
// isomorphic one. (chunk_test.go's warm-store suite separately proves the
// reloaded graphs produce identical RunChunk bytes.)
func TestMarshalRoundTripFamilies(t *testing.T) {
	for _, fam := range registry.Graphs() {
		fam := fam
		t.Run(fam.Name, func(t *testing.T) {
			g, err := fam.Build(registry.Values{}, rand.New(rand.NewPCG(7, 9)))
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			data, err := g.MarshalBinary()
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			var got graph.Graph
			if err := got.UnmarshalBinary(data); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if !reflect.DeepEqual(&got, g) {
				t.Fatalf("round-trip not deep-equal: got %v, want %v", &got, g)
			}
			// A second marshal of the decoded graph must be byte-identical —
			// the image is canonical, so disk checksums compose with it.
			data2, err := got.MarshalBinary()
			if err != nil {
				t.Fatalf("re-marshal: %v", err)
			}
			if !reflect.DeepEqual(data2, data) {
				t.Fatalf("re-marshal differs from original image")
			}
		})
	}
}

// TestMarshalRoundTripParallelEdges pins the encoding on a multigraph: the
// kmw lifts produce parallel edges, and twin-arc pairing is exactly the
// state a naive adjacency round-trip would lose.
func TestMarshalRoundTripParallelEdges(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // parallel to edge 0, reversed insertion order
	b.AddEdge(1, 2)
	g := b.MustBuild()
	data, err := g.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var got graph.Graph
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(&got, g) {
		t.Fatalf("round-trip not deep-equal: got %v, want %v", &got, g)
	}
}

// TestMarshalRoundTripEmpty covers the degenerate shapes: no nodes, and
// nodes without edges.
func TestMarshalRoundTripEmpty(t *testing.T) {
	for _, n := range []int{0, 1, 5} {
		g := graph.NewBuilder(n).MustBuild()
		data, err := g.MarshalBinary()
		if err != nil {
			t.Fatalf("n=%d: marshal: %v", n, err)
		}
		var got graph.Graph
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatalf("n=%d: unmarshal: %v", n, err)
		}
		if got.N() != n || got.M() != 0 {
			t.Fatalf("n=%d: decoded %v", n, &got)
		}
	}
}

// TestUnmarshalRejectsDamage flips or truncates bytes across the image and
// asserts decoding fails rather than returning a plausible wrong graph. The
// store's checksum layer catches corruption first; this proves the decoder
// is safe even without it.
func TestUnmarshalRejectsDamage(t *testing.T) {
	fam, err := registry.FindGraph("regular")
	if err != nil {
		t.Fatal(err)
	}
	g, err := fam.Build(registry.Values{"n": 64, "d": 4}, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	data, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, img []byte) {
		var got graph.Graph
		if err := got.UnmarshalBinary(img); err == nil {
			t.Errorf("%s: decode accepted damaged image", name)
		}
	}
	check("empty", nil)
	check("bad magic", append([]byte("wrongg"), data[6:]...))
	ver := append([]byte(nil), data...)
	ver[6] ^= 0xFF
	check("bad version", ver)
	check("truncated header", data[:10])
	check("truncated payload", data[:len(data)-3])
	check("extended payload", append(append([]byte(nil), data...), 0, 0, 0, 0))
	// Flip one byte in each region of the payload: counts, offsets, arcs.
	for _, off := range []int{8, 40, len(data)/2 + 1, len(data) - 2} {
		img := append([]byte(nil), data...)
		img[off] ^= 0x55
		check("bit flip", img)
	}
}

// FuzzUnmarshalBinary feeds arbitrary images to the decoder. An accepted
// image must be a consistent Graph: it re-marshals to the same bytes, and
// every arc agrees with its twin and with its edge's endpoints, with each
// edge id on exactly two arcs. Code that indexes by edge endpoints or twin
// arcs (the validators, the round engine) trusts exactly these facts. The
// checked-in corpus under testdata/fuzz holds an image whose orphaned edge
// id once decoded with out-of-range endpoints.
func FuzzUnmarshalBinary(f *testing.F) {
	rng := rand.New(rand.NewPCG(3, 5))
	multi := graph.NewBuilder(3)
	multi.AddEdge(0, 1)
	multi.AddEdge(1, 0)
	multi.AddEdge(1, 2)
	for _, g := range []*graph.Graph{
		graph.NewBuilder(0).MustBuild(),
		graph.NewBuilder(3).MustBuild(),
		graph.Path(4),
		graph.Cycle(5),
		graph.Complete(4),
		multi.MustBuild(),
		graph.RandomTree(12, rng),
		graph.RandomRegular(10, 3, rng),
	} {
		data, err := g.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(data[:len(data)-1])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var g graph.Graph
		if err := g.UnmarshalBinary(data); err != nil {
			return
		}
		back, err := g.MarshalBinary()
		if err != nil || !bytes.Equal(back, data) {
			t.Fatalf("accepted image does not re-marshal to itself (err %v)", err)
		}
		arcs := make([]int, g.M())
		for v := 0; v < g.N(); v++ {
			for p := 0; p < g.Deg(v); p++ {
				u, e, q := g.Neighbor(v, p), g.EdgeID(v, p), g.TwinPort(v, p)
				if a, b := g.Endpoints(e); !(a == v && b == u) && !(a == u && b == v) {
					t.Fatalf("arc (%d,%d) joins %d-%d but edge %d has endpoints (%d,%d)", v, p, v, u, e, a, b)
				}
				if g.Neighbor(u, q) != v || g.EdgeID(u, q) != e {
					t.Fatalf("arc (%d,%d) has an inconsistent twin", v, p)
				}
				arcs[e]++
			}
		}
		for e, k := range arcs {
			if k != 2 {
				t.Fatalf("edge %d carried by %d arcs", e, k)
			}
		}
		if err := graph.IsIndependentSet(&g, make([]bool, g.N())); err != nil {
			t.Fatalf("empty set rejected: %v", err)
		}
	})
}
