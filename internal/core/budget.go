package core

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
)

// Budget is a pool of worker tokens that nested ForEach pools share: a
// campaign's scenario pool, each scenario's row pool and each row's trial
// pool together never run more than the budget's goroutines at once, and
// a token that one pool no longer needs goes to whichever pool still has
// indices to hand out. A static split would instead leave a core idle
// once the pool it was given ran dry.
//
// Every goroutine doing a pool's work holds one token. The goroutine that
// makes the budget holds the first, and so does the goroutine that opens
// a pool: it is the pool's first worker. While it waits for the helpers
// its pool started, it lends its token back, and it takes a token again
// before ForEach returns, so the nest's total never exceeds the budget.
type Budget struct {
	mu      sync.Mutex
	free    int             // tokens nobody holds
	parked  []chan struct{} // pool callers waiting to take a token back
	wanting []*pool         // pools that found no free token for a helper
}

// NewBudget returns a budget of parallelism tokens (at least one), the
// first of them held by the caller.
func NewBudget(parallelism int) *Budget {
	return &Budget{free: max(parallelism, 1) - 1}
}

type budgetKey struct{}

// WithBudget returns a context carrying b (derived from Background when
// ctx is nil), through which nested pools find the budget to draw on.
func WithBudget(ctx context.Context, b *Budget) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, budgetKey{}, b)
}

// BudgetFrom returns the budget ctx carries and ctx itself; when ctx
// carries none, it returns a new budget of parallelism tokens and ctx
// (Background when nil) carrying it. A pool nested under another draws
// on its parent's budget, and a pool run alone on its own.
func BudgetFrom(ctx context.Context, parallelism int) (*Budget, context.Context) {
	if ctx != nil {
		if b, ok := ctx.Value(budgetKey{}).(*Budget); ok {
			return b, ctx
		}
	}
	b := NewBudget(parallelism)
	return b, WithBudget(ctx, b)
}

// pool is one ForEach call's shared state.
type pool struct {
	b         *Budget
	n         int
	newJob    func() func(int) error
	next      atomic.Int64 // the next index to hand out
	minFailed atomic.Int64 // the lowest failed index, n if none
	errs      []error
	wg        sync.WaitGroup
	helpers   int  // guarded by b.mu: helpers started and not yet done
	wanting   bool // guarded by b.mu: p is on b.wanting
}

// ForEach runs job(i) for every i in [0, n) and returns the lowest-indexed
// error, independent of scheduling. The calling goroutine is the first
// worker. Whenever a worker takes an index while more remain and a token
// is free, it starts one more worker; newJob is called once per worker,
// before its first index, so a job can own per-worker state. With one
// token the indices run in order on the caller and stop at the first
// error. With more, indices above the lowest failing one may be skipped:
// callers read results in index order and stop at the first error, so
// skipped results are never read. Indices below it still run, since one
// of them failing would change the reported error.
func (b *Budget) ForEach(n int, newJob func() func(i int) error) error {
	if n <= 0 {
		return nil
	}
	p := &pool{b: b, n: n, newJob: newJob, errs: make([]error, n)}
	p.minFailed.Store(int64(n))
	p.work()
	// Every index is handed out, so no helper starts for p from here on
	// (offer and releaseLocked check next under b.mu): the wg.Add calls
	// precede the Wait. Nor may the queue keep p, and with it whatever
	// newJob holds, alive after ForEach returns.
	b.mu.Lock()
	if p.wanting {
		b.wanting = slices.DeleteFunc(b.wanting, func(q *pool) bool { return q == p })
		p.wanting = false
	}
	helping := p.helpers > 0
	if helping {
		b.releaseLocked() // lend the caller's token while it waits
	}
	b.mu.Unlock()
	if helping {
		p.wg.Wait()
		b.acquire()
	}
	for _, err := range p.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// work takes indices until none are left.
func (p *pool) work() {
	var job func(int) error
	for {
		i := p.next.Add(1) - 1
		if i >= int64(p.n) {
			return
		}
		if i+1 < int64(p.n) {
			p.b.offer(p)
		}
		if i > p.minFailed.Load() {
			continue // a lower index failed: this result is never read
		}
		if job == nil {
			job = p.newJob()
		}
		if p.errs[i] = job(int(i)); p.errs[i] != nil {
			for cur := p.minFailed.Load(); i < cur; cur = p.minFailed.Load() {
				if p.minFailed.CompareAndSwap(cur, i) {
					break
				}
			}
		}
	}
}

// help is a helper worker's life: it holds a token from start until it
// hands the token on.
func (p *pool) help() {
	defer p.wg.Done()
	p.work()
	p.b.mu.Lock()
	p.helpers--
	p.b.releaseLocked()
	p.b.mu.Unlock()
}

// offer starts a helper for p if a token is free, and otherwise queues p
// for the next token released.
func (b *Budget) offer(p *pool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if p.next.Load() >= int64(p.n) {
		return // the other workers took the rest meanwhile
	}
	if b.free > 0 {
		b.free--
		b.startLocked(p)
	} else if !p.wanting {
		p.wanting = true
		b.wanting = append(b.wanting, p)
	}
}

// startLocked starts a helper for p on a token the caller hands over.
func (b *Budget) startLocked(p *pool) {
	p.helpers++
	p.wg.Add(1)
	go p.help()
}

// releaseLocked hands on a token its holder gives up: first to a parked
// caller, which then finishes the work it started; else to the pool that
// most recently asked for a helper and still has indices left; else to
// the free count.
func (b *Budget) releaseLocked() {
	if len(b.parked) > 0 {
		close(b.parked[0])
		b.parked = b.parked[1:]
		return
	}
	for len(b.wanting) > 0 {
		p := b.wanting[len(b.wanting)-1]
		b.wanting[len(b.wanting)-1] = nil
		b.wanting = b.wanting[:len(b.wanting)-1]
		p.wanting = false
		if p.next.Load() < int64(p.n) {
			b.startLocked(p)
			return
		}
	}
	b.free++
}

// acquire takes a token, waiting for one to be handed on if none is free.
func (b *Budget) acquire() {
	b.mu.Lock()
	if b.free > 0 {
		b.free--
		b.mu.Unlock()
		return
	}
	ready := make(chan struct{})
	b.parked = append(b.parked, ready)
	b.mu.Unlock()
	<-ready
}
