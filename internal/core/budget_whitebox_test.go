package core

import "testing"

// TestBudgetForgetsFinishedPools: a pool that queued for a helper and
// never got one leaves the queue when its ForEach returns, so a budget
// that outlives many pools (a campaign's) does not keep their jobs, and
// the outcomes those jobs write, alive.
func TestBudgetForgetsFinishedPools(t *testing.T) {
	nop := func() func(int) error { return func(int) error { return nil } }
	for _, p := range []int{1, 2} {
		b := NewBudget(p)
		err := b.ForEach(3, func() func(int) error {
			return func(int) error { return b.ForEach(4, nop) }
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(b.wanting) != 0 || len(b.parked) != 0 || b.free != p-1 {
			t.Fatalf("P=%d: after the nest, %d pools queued, %d callers parked, %d tokens free (want 0, 0, %d)",
				p, len(b.wanting), len(b.parked), b.free, p-1)
		}
	}
}
