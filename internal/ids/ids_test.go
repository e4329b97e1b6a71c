package ids_test

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"avgloc/internal/ids"
)

func TestSequential(t *testing.T) {
	s := ids.Sequential(5)
	for i, id := range s {
		if id != int64(i) {
			t.Fatalf("sequential[%d]=%d", i, id)
		}
	}
}

func TestRandomPermIsBijection(t *testing.T) {
	f := func(seed uint64) bool {
		n := 1 + int(seed%100)
		rng := rand.New(rand.NewPCG(seed, 1))
		p := ids.RandomPerm(n, rng)
		seen := make(map[int64]bool, n)
		for _, id := range p {
			if id < 0 || id >= int64(n) || seen[id] {
				return false
			}
			seen[id] = true
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomSparseDistinctAndBounded(t *testing.T) {
	f := func(seed uint64) bool {
		n := 2 + int(seed%80)
		rng := rand.New(rand.NewPCG(seed, 2))
		s := ids.RandomSparse(n, rng)
		if len(s) != n {
			return false
		}
		seen := make(map[int64]bool, n)
		space := int64(n) * int64(n)
		for _, id := range s {
			if id < 0 || id >= space || seen[id] {
				return false
			}
			seen[id] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
