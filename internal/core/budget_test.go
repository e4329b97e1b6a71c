package core_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"avgloc/internal/core"
)

// rendezvous returns a job for k units that each wait until all k have
// started, which completes only when all k run at once.
func rendezvous(k int) func(int) error {
	var arrived sync.WaitGroup
	arrived.Add(k)
	all := make(chan struct{})
	go func() {
		arrived.Wait()
		close(all)
	}()
	return func(i int) error {
		arrived.Done()
		select {
		case <-all:
			return nil
		case <-time.After(10 * time.Second):
			return fmt.Errorf("unit %d of %d never saw its peers start", i, k)
		}
	}
}

// TestBudgetNeverExceedsParallelism nests three pools, as a campaign nests
// scenarios, rows and trials, and checks with a high-water mark that at
// most P leaf jobs ever run at once, and that the nest uses all P.
func TestBudgetNeverExceedsParallelism(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5} {
		b := core.NewBudget(p)
		var running, high atomic.Int64
		var leaves atomic.Int64
		leaf := func(int) error {
			now := running.Add(1)
			for cur := high.Load(); now > cur && !high.CompareAndSwap(cur, now); cur = high.Load() {
			}
			time.Sleep(200 * time.Microsecond)
			running.Add(-1)
			leaves.Add(1)
			return nil
		}
		err := b.ForEach(4, func() func(int) error {
			return func(int) error {
				return b.ForEach(3, func() func(int) error {
					return func(int) error {
						return b.ForEach(5, func() func(int) error { return leaf })
					}
				})
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := leaves.Load(); got != 4*3*5 {
			t.Fatalf("P=%d: %d leaf jobs ran, want %d", p, got, 4*3*5)
		}
		if got := high.Load(); got > int64(p) {
			t.Fatalf("P=%d: %d leaf jobs ran at once", p, got)
		}
		t.Logf("P=%d: at most %d leaf jobs at once", p, high.Load())
	}
}

// TestBudgetTailHelp: at P=2, outer job 0 returns at once and outer job 1
// opens an inner pool whose two units rendezvous. They can only meet if
// the token freed by job 0's worker goes to job 1's inner pool; a static
// split gives job 1 one worker and the units never meet.
func TestBudgetTailHelp(t *testing.T) {
	for rep := 0; rep < 20; rep++ {
		b := core.NewBudget(2)
		err := b.ForEach(2, func() func(int) error {
			return func(i int) error {
				if i == 0 {
					return nil
				}
				meet := rendezvous(2)
				return b.ForEach(2, func() func(int) error { return meet })
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestBudgetSingleJobGetsAll: a pool of one index (a one-row scenario)
// passes the whole budget to the pool nested in it.
func TestBudgetSingleJobGetsAll(t *testing.T) {
	b := core.NewBudget(4)
	err := b.ForEach(1, func() func(int) error {
		return func(int) error {
			meet := rendezvous(4)
			return b.ForEach(4, func() func(int) error { return meet })
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBudgetSequentialAtOne: with one token (or none asked for) the
// caller runs every index itself, in order, and stops at the first error.
func TestBudgetSequentialAtOne(t *testing.T) {
	for _, p := range []int{1, 0} {
		var order []int
		jobs := 0
		errStop := errors.New("stop")
		err := core.NewBudget(p).ForEach(8, func() func(int) error {
			jobs++
			return func(i int) error {
				order = append(order, i)
				if i == 3 {
					return errStop
				}
				return nil
			}
		})
		if !errors.Is(err, errStop) {
			t.Fatalf("P=%d: got %v, want index 3's error", p, err)
		}
		if fmt.Sprint(order) != "[0 1 2 3]" || jobs != 1 {
			t.Fatalf("P=%d: ran %v on %d workers, want [0 1 2 3] on one", p, order, jobs)
		}
	}
}

// TestBudgetFromContext: a pool finds the budget its context carries, and
// a context without one gets a fresh budget.
func TestBudgetFromContext(t *testing.T) {
	b := core.NewBudget(3)
	got, ctx := core.BudgetFrom(core.WithBudget(nil, b), 1)
	if got != b {
		t.Fatal("BudgetFrom ignored the context's budget")
	}
	if again, _ := core.BudgetFrom(ctx, 1); again != b {
		t.Fatal("BudgetFrom's context lost the budget")
	}
	if fresh, _ := core.BudgetFrom(nil, 2); fresh == b || fresh == nil {
		t.Fatal("BudgetFrom without a budget in ctx must make a new one")
	}
}
