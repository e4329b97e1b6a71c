package ruling_test

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"avgloc/internal/alg/mis"
	"avgloc/internal/alg/ruling"
	"avgloc/internal/graph"
	"avgloc/internal/ids"
	"avgloc/internal/runtime"
)

var update = flag.Bool("update", false, "rewrite testdata/exact.golden")

var exactGolden = filepath.Join("testdata", "exact.golden")

// exactAlgs are the deterministic lockstep programs whose every commit
// round is pinned: validity checks alone would pass a port that moved a
// commit by one round.
var exactAlgs = []struct {
	name string
	alg  runtime.Algorithm
}{
	{"mis.Det", mis.Det{}},
	{"ruling.Det/LogDelta", ruling.Det{Variant: ruling.LogDelta}},
	{"ruling.Det/LogLogN", ruling.Det{Variant: ruling.LogLogN}},
	{"ruling.Det/LogDelta/if1", ruling.Det{Variant: ruling.LogDelta, IterationFactor: 1}},
}

type namedGraph struct {
	name string
	g    *graph.Graph
}

// exactGraphs covers the shapes the stages special-case: tiny cycles and
// paths, high-degree centers, dense cliques, lattices, random graphs and
// trees, and a disjoint union with an isolated node.
func exactGraphs() []namedGraph {
	gs := []namedGraph{
		{"cycle3", graph.Cycle(3)},
		{"cycle64", graph.Cycle(64)},
		{"cycle1000", graph.Cycle(1000)},
		{"path2", graph.Path(2)},
		{"path33", graph.Path(33)},
		{"star17", graph.Star(17)},
		{"k9", graph.Complete(9)},
		{"grid6x7", graph.Grid(6, 7)},
		{"torus5x6", graph.Torus(5, 6)},
		{"hypercube5", graph.Hypercube(5)},
	}
	for s := uint64(0); s < 3; s++ {
		rng := rand.New(rand.NewPCG(s, 0xE1AC7))
		gs = append(gs,
			namedGraph{fmt.Sprintf("gnp60-%d", s), graph.GNP(60, 0.08, rng)},
			namedGraph{fmt.Sprintf("gnp40dense-%d", s), graph.GNP(40, 0.3, rng)},
			namedGraph{fmt.Sprintf("regular64x3-%d", s), graph.RandomRegular(64, 3, rng)},
			namedGraph{fmt.Sprintf("regular80x6-%d", s), graph.RandomRegular(80, 6, rng)},
			namedGraph{fmt.Sprintf("tree100-%d", s), graph.RandomTree(100, rng)},
		)
	}
	union, _ := graph.Disjoint(graph.Cycle(7), graph.Path(1), graph.Star(5), graph.Complete(4), graph.Path(2))
	return append(gs, namedGraph{"union", union})
}

// exactIDs returns the three identifier schemes for g, drawn from a stream
// keyed by the graph's index.
func exactIDs(i, n int) []struct {
	name string
	ids  []int64
} {
	rng := rand.New(rand.NewPCG(uint64(i), 0x1D5))
	return []struct {
		name string
		ids  []int64
	}{
		{"seq", ids.Sequential(n)},
		{"perm", ids.RandomPerm(n, rng)},
		{"sparse", ids.RandomSparse(n, rng)},
	}
}

// resultHash digests everything a run reports about nodes. Outputs enter
// as the membership vector: mis and ruling share In == 1, and a []bool
// prints exactly as the untyped outputs the golden was written from did.
func resultHash(res *runtime.Result) string {
	h := sha256.New()
	fmt.Fprint(h, res.Rounds, res.NodeCommit, res.NodeHalt, ruling.SetFromResult(res), res.Messages)
	return fmt.Sprintf("%x", h.Sum(nil))
}

func readExactGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(exactGolden)
	if err != nil {
		t.Fatalf("%v (rerun with -update to create it)", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("%s: malformed line %q", exactGolden, line)
		}
		want[line[:i]] = line[i+1:]
	}
	return want
}

// TestDetExactGolden pins Rounds, NodeCommit, NodeHalt, NodeOut and
// Messages of every deterministic lockstep program on every graph and
// identifier scheme against testdata/exact.golden.
func TestDetExactGolden(t *testing.T) {
	var want map[string]string
	if !*update {
		want = readExactGolden(t)
	}
	var b strings.Builder
	for i, ng := range exactGraphs() {
		eng := runtime.NewEngine(ng.g)
		for _, assign := range exactIDs(i, ng.g.N()) {
			for _, a := range exactAlgs {
				key := a.name + " " + ng.name + " " + assign.name
				res, err := eng.Run(a.alg, runtime.Config{IDs: assign.ids})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				got := resultHash(res)
				fmt.Fprintf(&b, "%s %s\n", key, got)
				if !*update && got != want[key] {
					t.Errorf("%s: result sha256 %s, golden %s", key, got, want[key])
				}
			}
		}
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(exactGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDetRoundLimitThenReuse aborts mis.Det below its round schedule and
// then reruns it on the same Engine: the abort must surface as
// ErrRoundLimit and leave nothing behind that changes the next run.
func TestDetRoundLimitThenReuse(t *testing.T) {
	want := readExactGolden(t)
	const i = 1 // exactGraphs()[1] is cycle64
	g := exactGraphs()[i].g
	assign := exactIDs(i, g.N())[1]
	eng := runtime.NewEngine(g)
	if _, err := eng.Run(mis.Det{}, runtime.Config{IDs: assign.ids, MaxRounds: 3}); !errors.Is(err, runtime.ErrRoundLimit) {
		t.Fatalf("want ErrRoundLimit, got %v", err)
	}
	res, err := eng.Run(mis.Det{}, runtime.Config{IDs: assign.ids})
	if err != nil {
		t.Fatal(err)
	}
	key := "mis.Det cycle64 " + assign.name
	if got := resultHash(res); got != want[key] {
		t.Fatalf("%s after an aborted run: sha256 %s, golden %s", key, got, want[key])
	}
}
