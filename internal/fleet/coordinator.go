package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"avgloc/internal/obs"
	"avgloc/internal/resultstore"
	"avgloc/internal/scenario"
)

// ErrUnavailable marks fleet infrastructure failures — no workers
// attached, a chunk lost beyond the retry budget, the dispatch queue full
// — as opposed to deterministic execution errors. Callers fall back to
// local execution on it; byte-identity makes the fallback invisible.
var ErrUnavailable = errors.New("fleet: unavailable")

// ErrNoWorkers is returned when no live worker is attached to accept work
// (including when every worker is lost mid-run).
var ErrNoWorkers = fmt.Errorf("%w: no workers attached", ErrUnavailable)

// ErrBusy is returned when the pending-chunk queue cannot absorb a run.
var ErrBusy = fmt.Errorf("%w: dispatch queue full", ErrUnavailable)

// Defaults for Config zero values.
const (
	DefaultChunkTrials      = 8
	DefaultHeartbeatTimeout = 10 * time.Second
	DefaultStealAfter       = 3 * time.Second
	DefaultPollInterval     = 200 * time.Millisecond
	DefaultQueueCap         = 4096
)

// DefaultMaxRetries bounds how often a chunk may be lost to worker failure
// before its run fails with ErrUnavailable.
const DefaultMaxRetries = 3

// maxChunkLeases bounds concurrent duplicate executions of one chunk: the
// original lease plus one stolen copy. More copies waste workers without
// improving the straggler tail much, and determinism never needs them.
const maxChunkLeases = 2

// maxCompleteBody bounds one chunk-result upload. Per-trial partials are
// per-node/per-edge int32 arrays, so a chunk of ChunkTrials trials on the
// largest registry graph runs to tens of megabytes of JSON; 256 MiB leaves
// headroom without letting a rogue worker exhaust memory.
const maxCompleteBody = 256 << 20

// Config parameterizes a Coordinator. Zero values select the defaults.
type Config struct {
	// ChunkTrials is the trial-range size of one chunk. The sharding is a
	// pure function of (spec, ChunkTrials) — independent of worker count —
	// so chunk cache keys stay stable across runs and restarts.
	ChunkTrials int
	// HeartbeatTimeout is how long a lease survives without a heartbeat
	// before the chunk requeues; a worker silent for twice this long is
	// deregistered.
	HeartbeatTimeout time.Duration
	// StealAfter is the lease age past which an idle poller may receive a
	// duplicate lease for a straggling chunk.
	StealAfter time.Duration
	// PollInterval is the idle re-poll cadence advertised to workers.
	PollInterval time.Duration
	// QueueCap bounds pending (unleased) chunks across all runs; runs that
	// would overflow it fail fast with ErrBusy.
	QueueCap int
	// Store, if non-nil, caches completed chunks under scenario.ChunkKey:
	// a re-run after a crash only re-executes the chunks it lost.
	Store *resultstore.Store
	// Trace, if non-nil, records the chunk lifecycle of every run — queue,
	// lease, steal, requeue, complete, merge, plus worker churn — into a
	// flight-recorder artifact. A nil Trace (the default) short-circuits
	// every recording call; see internal/obs.
	Trace *obs.Tracer
	// Logf, if non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

func (c Config) chunkTrials() int {
	if c.ChunkTrials > 0 {
		return c.ChunkTrials
	}
	return DefaultChunkTrials
}

func (c Config) heartbeatTimeout() time.Duration {
	if c.HeartbeatTimeout > 0 {
		return c.HeartbeatTimeout
	}
	return DefaultHeartbeatTimeout
}

func (c Config) stealAfter() time.Duration {
	if c.StealAfter > 0 {
		return c.StealAfter
	}
	return DefaultStealAfter
}

func (c Config) pollInterval() time.Duration {
	if c.PollInterval > 0 {
		return c.PollInterval
	}
	return DefaultPollInterval
}

func (c Config) queueCap() int {
	if c.QueueCap > 0 {
		return c.QueueCap
	}
	return DefaultQueueCap
}

// workerState tracks one registered worker.
type workerState struct {
	id       string
	name     string
	seq      int
	lastSeen time.Time
	active   map[string]*task // chunk id -> leased task
	done     int64            // chunks completed (first-completion wins)
}

// run collects one scenario's chunks.
type run struct {
	span      *obs.Span // the run's fleet.run span (nil when tracing is off)
	check     *scenario.ChunkChecker
	remaining int
	chunks    []*scenario.Chunk
	err       error
	failed    bool
	finished  bool
	done      chan struct{}
}

// task is one chunk moving through the queue.
type task struct {
	id         string
	job        ChunkJob
	key        string // chunk store key ("" without a store)
	run        *run
	retries    int
	leases     map[string]time.Time // worker id -> heartbeat deadline
	firstLease time.Time
	done       bool
}

// WorkerStats is the per-worker block of Stats.
type WorkerStats struct {
	ID              string `json:"id"`
	Name            string `json:"name,omitempty"`
	ActiveChunks    int    `json:"active_chunks"`
	ChunksCompleted int64  `json:"chunks_completed"`
	IdleMillis      int64  `json:"idle_ms"`
}

// Stats is a snapshot of the coordinator's queue and worker state, served
// on avgserve's GET /v1/metrics.
type Stats struct {
	Workers          []WorkerStats `json:"workers"`
	PendingChunks    int           `json:"pending_chunks"`
	LeasedChunks     int           `json:"leased_chunks"`
	ChunksDispatched int64         `json:"chunks_dispatched"`
	ChunksCompleted  int64         `json:"chunks_completed"`
	ChunksCached     int64         `json:"chunks_cached"`
	ChunksRetried    int64         `json:"chunks_retried"`
	ChunksStolen     int64         `json:"chunks_stolen"`
	ChunksFailed     int64         `json:"chunks_failed"`
	// ChunksDuplicate counts complete() calls for chunks already merged —
	// stolen copies finishing second, duplicate deliveries, leases that
	// expired while the worker kept computing. All are idempotently ignored.
	ChunksDuplicate int64 `json:"chunks_duplicate"`
}

// Coordinator shards scenario runs into chunks and drives a worker fleet.
// All expiry is lazy — every entry point advances the lease/worker clocks
// — so the coordinator needs no background goroutine and no Close.
type Coordinator struct {
	cfg Config

	mu      sync.Mutex
	workers map[string]*workerState
	tasks   map[string]*task // every live task, pending or leased
	pending []*task          // FIFO; retries jump the line
	leased  map[string]*task
	nextWID int
	nextCID int64

	// Lifecycle counters are atomics rather than fields under mu: the
	// metrics registry reads them from scrape handlers (CounterFunc) and
	// RunScenario bumps cached outside the lock.
	dispatched atomic.Int64
	completed  atomic.Int64
	cached     atomic.Int64
	retried    atomic.Int64
	stolen     atomic.Int64
	failed     atomic.Int64
	duplicate  atomic.Int64
}

// NewCoordinator returns a coordinator with the given configuration.
func NewCoordinator(cfg Config) *Coordinator {
	return &Coordinator{
		cfg:     cfg,
		workers: make(map[string]*workerState),
		tasks:   make(map[string]*task),
		leased:  make(map[string]*task),
	}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Workers returns the number of live registered workers.
func (c *Coordinator) Workers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(time.Now())
	return len(c.workers)
}

// Stats snapshots the coordinator state. Workers are listed in
// registration order.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.expireLocked(now)
	st := Stats{
		PendingChunks:    len(c.pending),
		LeasedChunks:     len(c.leased),
		ChunksDispatched: c.dispatched.Load(),
		ChunksCompleted:  c.completed.Load(),
		ChunksCached:     c.cached.Load(),
		ChunksRetried:    c.retried.Load(),
		ChunksStolen:     c.stolen.Load(),
		ChunksFailed:     c.failed.Load(),
		ChunksDuplicate:  c.duplicate.Load(),
	}
	for _, w := range c.workers {
		st.Workers = append(st.Workers, WorkerStats{
			ID:              w.id,
			Name:            w.name,
			ActiveChunks:    len(w.active),
			ChunksCompleted: w.done,
			IdleMillis:      now.Sub(w.lastSeen).Milliseconds(),
		})
	}
	seq := make(map[string]int, len(c.workers))
	for _, w := range c.workers {
		seq[w.id] = w.seq
	}
	sort.Slice(st.Workers, func(i, j int) bool { return seq[st.Workers[i].ID] < seq[st.Workers[j].ID] })
	return st
}

// RegisterMetrics publishes the coordinator's lifecycle counters and
// queue gauges on r under the avg_fleet_* names. The counter funcs read
// the same atomics Stats does; the gauges take c.mu exactly like Stats.
func (c *Coordinator) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("avg_fleet_chunks_dispatched_total", "Chunk leases handed to workers.", c.dispatched.Load)
	r.CounterFunc("avg_fleet_chunks_completed_total", "Chunks merged (first completion wins).", c.completed.Load)
	r.CounterFunc("avg_fleet_chunks_cached_total", "Chunks served from the chunk cache without dispatch.", c.cached.Load)
	r.CounterFunc("avg_fleet_chunks_retried_total", "Chunks requeued after a lost lease.", c.retried.Load)
	r.CounterFunc("avg_fleet_chunks_stolen_total", "Duplicate leases issued for straggling chunks.", c.stolen.Load)
	r.CounterFunc("avg_fleet_chunks_failed_total", "Chunk completions that failed or mismatched their lease.", c.failed.Load)
	r.CounterFunc("avg_fleet_chunks_duplicate_total", "Completions for already-merged chunks, idempotently ignored.", c.duplicate.Load)
	r.GaugeFunc("avg_fleet_workers", "Live registered workers.", func() float64 { return float64(c.Workers()) })
	r.GaugeFunc("avg_fleet_pending_chunks", "Unleased chunks across all runs.", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.pending))
	})
	r.GaugeFunc("avg_fleet_leased_chunks", "Chunks currently leased to workers.", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.leased))
	})
}

// spanFrom starts a trace span for a run: a child of ctx's active span
// when the caller is already traced (avgserve request, campaign
// scenario), else a root span on the coordinator's own tracer, else nil.
func (c *Coordinator) spanFrom(ctx context.Context, name string, attrs ...obs.KV) *obs.Span {
	if parent := obs.FromCtx(ctx); parent != nil {
		return parent.Span(name, attrs...)
	}
	return c.cfg.Trace.Span(nil, name, attrs...)
}

// expireLocked advances the failure detectors: leases past their heartbeat
// deadline are released (requeueing chunks that lost every lease), and
// workers silent for twice the heartbeat timeout are deregistered. Caller
// holds c.mu.
func (c *Coordinator) expireLocked(now time.Time) {
	for _, t := range c.leased {
		for wid, deadline := range t.leases {
			if now.After(deadline) {
				delete(t.leases, wid)
				if w := c.workers[wid]; w != nil {
					delete(w.active, t.id)
				}
			}
		}
		if len(t.leases) == 0 && !t.done {
			c.requeueLocked(t)
		}
	}
	expiry := 2 * c.cfg.heartbeatTimeout()
	for id, w := range c.workers {
		if now.Sub(w.lastSeen) <= expiry {
			continue
		}
		c.logf("fleet: worker %s (%s) lost (silent %v)", w.id, w.name, now.Sub(w.lastSeen).Round(time.Millisecond))
		c.cfg.Trace.Event(nil, "worker.lost", obs.A("worker", w.id), obs.A("name", w.name))
		for cid, t := range w.active {
			delete(t.leases, id)
			if len(t.leases) == 0 && !t.done {
				c.requeueLocked(t)
			}
			delete(w.active, cid)
		}
		delete(c.workers, id)
	}
}

// requeueLocked returns a lost chunk to the front of the queue, failing
// its run once the retry budget is exhausted. Caller holds c.mu.
func (c *Coordinator) requeueLocked(t *task) {
	delete(c.leased, t.id)
	t.leases = make(map[string]time.Time)
	t.firstLease = time.Time{}
	if t.run.failed {
		delete(c.tasks, t.id)
		return
	}
	t.retries++
	if t.retries > DefaultMaxRetries {
		delete(c.tasks, t.id)
		t.run.span.Event("chunk.lost", obs.A("chunk", t.id), obs.A("row", t.job.Row), obs.A("retries", t.retries))
		c.failRunLocked(t.run, fmt.Errorf("%w: chunk row %d trials [%d, %d) lost %d times",
			ErrUnavailable, t.job.Row, t.job.TrialLo, t.job.TrialHi, t.retries))
		return
	}
	c.retried.Add(1)
	t.run.span.Event("chunk.requeue", obs.A("chunk", t.id), obs.A("row", t.job.Row), obs.A("attempt", t.retries+1))
	c.logf("fleet: requeueing chunk %s (row %d trials [%d, %d), attempt %d)",
		t.id, t.job.Row, t.job.TrialLo, t.job.TrialHi, t.retries+1)
	c.pending = append([]*task{t}, c.pending...)
}

func (c *Coordinator) failRunLocked(r *run, err error) {
	if r.finished {
		return
	}
	r.failed = true
	r.err = err
	r.finished = true
	close(r.done)
}

// leaseLocked hands t to w with a fresh heartbeat deadline. Caller holds
// c.mu.
func (c *Coordinator) leaseLocked(t *task, w *workerState, now time.Time) {
	if t.leases == nil {
		t.leases = make(map[string]time.Time)
	}
	t.leases[w.id] = now.Add(c.cfg.heartbeatTimeout())
	if t.firstLease.IsZero() {
		t.firstLease = now
	}
	w.active[t.id] = t
	c.leased[t.id] = t
}

// register admits a worker and returns its identity and cadence.
func (c *Coordinator) register(name string) registerResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.expireLocked(now)
	c.nextWID++
	w := &workerState{
		id:       fmt.Sprintf("w%d", c.nextWID),
		name:     name,
		seq:      c.nextWID,
		lastSeen: now,
		active:   make(map[string]*task),
	}
	c.workers[w.id] = w
	c.logf("fleet: worker %s (%s) registered", w.id, w.name)
	c.cfg.Trace.Event(nil, "worker.registered", obs.A("worker", w.id), obs.A("name", name))
	return registerResponse{
		WorkerID:        w.id,
		HeartbeatMillis: (c.cfg.heartbeatTimeout() / 3).Milliseconds(),
		PollMillis:      c.cfg.pollInterval().Milliseconds(),
	}
}

// deregister removes a gracefully departing worker (SIGTERM drain),
// requeueing any chunk whose only lease it held — immediately, instead of
// after the heartbeat timeout. Unknown workers are a no-op: deregister is
// idempotent.
func (c *Coordinator) deregister(workerID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(time.Now())
	w := c.workers[workerID]
	if w == nil {
		return
	}
	c.logf("fleet: worker %s (%s) deregistered (drain)", w.id, w.name)
	for cid, t := range w.active {
		delete(t.leases, workerID)
		if len(t.leases) == 0 && !t.done {
			c.requeueLocked(t)
		}
		delete(w.active, cid)
	}
	delete(c.workers, workerID)
}

// poll leases the next chunk to the worker: the queue head, or — when the
// queue is drained — a stolen duplicate of the oldest straggling lease.
// ok is false for unknown workers, which must re-register.
func (c *Coordinator) poll(workerID string) (job *ChunkJob, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.expireLocked(now)
	w := c.workers[workerID]
	if w == nil {
		return nil, false
	}
	w.lastSeen = now
	for len(c.pending) > 0 {
		t := c.pending[0]
		c.pending = c.pending[1:]
		if t.done || t.run.failed {
			delete(c.tasks, t.id)
			continue
		}
		c.leaseLocked(t, w, now)
		c.dispatched.Add(1)
		t.run.span.Event("chunk.lease", obs.A("chunk", t.id), obs.A("worker", workerID),
			obs.A("row", t.job.Row), obs.A("lo", t.job.TrialLo), obs.A("hi", t.job.TrialHi))
		jb := t.job
		return &jb, true
	}
	// Work stealing: duplicate the oldest lease that has outlived the
	// straggler threshold. First completion wins; determinism makes the
	// duplicate's result identical, so discarding it is safe.
	var best *task
	for _, t := range c.leased {
		if t.done || t.run.failed || len(t.leases) >= maxChunkLeases {
			continue
		}
		if _, mine := t.leases[workerID]; mine {
			continue
		}
		if now.Sub(t.firstLease) < c.cfg.stealAfter() {
			continue
		}
		if best == nil || t.firstLease.Before(best.firstLease) {
			best = t
		}
	}
	if best != nil {
		c.leaseLocked(best, w, now)
		c.stolen.Add(1)
		best.run.span.Event("chunk.steal", obs.A("chunk", best.id), obs.A("worker", workerID), obs.A("row", best.job.Row))
		c.logf("fleet: worker %s stealing chunk %s", workerID, best.id)
		jb := best.job
		return &jb, true
	}
	return nil, true
}

// heartbeat extends the worker's lease on a chunk. ok is false for unknown
// workers.
func (c *Coordinator) heartbeat(workerID, chunkID string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.expireLocked(now)
	w := c.workers[workerID]
	if w == nil {
		return false
	}
	w.lastSeen = now
	if t := c.leased[chunkID]; t != nil {
		if _, held := t.leases[workerID]; held {
			t.leases[workerID] = now.Add(c.cfg.heartbeatTimeout())
		}
	}
	return true
}

// complete records a chunk result. The first completion wins; duplicates
// (stolen copies, leases that expired while the worker kept computing) are
// discarded. A reported execution error is deterministic — retrying would
// re-derive it — so it fails the whole run. A payload that does not match
// its lease, by contrast, is an infrastructure fault (a stale or
// version-skewed worker): the chunk requeues for a healthy worker,
// bounded by the same retry budget as worker loss.
func (c *Coordinator) complete(req *completeRequest) completeResponse {
	c.mu.Lock()
	now := time.Now()
	c.expireLocked(now)
	if w := c.workers[req.WorkerID]; w != nil {
		w.lastSeen = now
	}
	t := c.tasks[req.ChunkID]
	if t == nil || t.done {
		// Already merged (or never existed): a stolen copy finishing second,
		// a duplicate delivery, a lease that expired mid-compute. Ignored —
		// the first completion's bytes already stand.
		c.duplicate.Add(1)
		if t != nil {
			t.run.span.Event("chunk.duplicate", obs.A("chunk", req.ChunkID), obs.A("worker", req.WorkerID))
		}
		c.mu.Unlock()
		return completeResponse{}
	}
	if req.Error == "" {
		if err := t.run.check.Accept(req.Chunk, t.job.Row, t.job.TrialLo, t.job.TrialHi); err != nil {
			// The result must not poison the merge, but a rogue worker is
			// not a deterministic execution error either — another worker
			// would derive the right bytes. Drop this worker's lease and
			// requeue when nobody else still holds one; the retry budget
			// converts a persistently confused fleet into ErrUnavailable,
			// which callers answer with local fallback.
			c.failed.Add(1)
			t.run.span.Event("chunk.mismatch", obs.A("chunk", t.id), obs.A("worker", req.WorkerID))
			c.logf("fleet: worker %s returned mismatched chunk for %s (%v); requeueing", req.WorkerID, t.id, err)
			delete(t.leases, req.WorkerID)
			if w := c.workers[req.WorkerID]; w != nil {
				delete(w.active, t.id)
			}
			if _, stillLeased := c.leased[t.id]; stillLeased && len(t.leases) == 0 {
				c.requeueLocked(t)
			}
			c.mu.Unlock()
			return completeResponse{}
		}
	}
	t.done = true
	delete(c.tasks, t.id)
	delete(c.leased, t.id)
	for wid := range t.leases {
		if w := c.workers[wid]; w != nil {
			delete(w.active, t.id)
		}
	}
	if w := c.workers[req.WorkerID]; w != nil {
		w.done++
	}
	r := t.run
	if req.Error != "" {
		c.failed.Add(1)
		r.span.Event("chunk.error", obs.A("chunk", t.id), obs.A("worker", req.WorkerID), obs.A("error", req.Error))
		c.failRunLocked(r, fmt.Errorf("fleet: chunk row %d trials [%d, %d): %s",
			t.job.Row, t.job.TrialLo, t.job.TrialHi, req.Error))
		c.mu.Unlock()
		return completeResponse{Accepted: true}
	}
	ch := req.Chunk
	c.completed.Add(1)
	r.span.Event("chunk.complete", obs.A("chunk", t.id), obs.A("worker", req.WorkerID),
		obs.A("row", t.job.Row), obs.A("lo", t.job.TrialLo), obs.A("hi", t.job.TrialHi))
	if !r.failed {
		r.chunks = append(r.chunks, ch)
		r.remaining--
		if r.remaining == 0 && !r.finished {
			r.finished = true
			close(r.done)
		}
	}
	key := t.key
	c.mu.Unlock()

	// Write the partial through to the chunk cache outside the lock: a
	// failed run's chunks are still valid partials for a later re-run.
	if key != "" && c.cfg.Store != nil {
		ps := r.span.Span("store.put", obs.A("key", key))
		if data, err := json.Marshal(ch); err == nil {
			if err := c.cfg.Store.Put(key, data); err != nil {
				c.logf("fleet: caching chunk %s: %v", key, err)
			}
		}
		ps.End()
	}
	return completeResponse{Accepted: true}
}

// RunScenario executes the spec across the fleet and returns the merged
// outcome — byte-identical (MarshalStable) to scenario.Run at any worker
// count, chunk size, retry and steal schedule. Chunks already present in
// the configured store are served from it without dispatching.
// Infrastructure failures return ErrUnavailable-wrapped errors;
// deterministic execution errors are returned as-is. Cancelling ctx
// abandons the wait and fails the run with ctx's error; chunks already in
// flight still complete and land in the chunk cache, so a retried request
// resumes rather than restarts.
func (c *Coordinator) RunScenario(ctx context.Context, spec *scenario.Spec) (*scenario.Outcome, error) {
	n, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	key, err := n.Key()
	if err != nil {
		return nil, err
	}
	check, err := n.ChunkChecker()
	if err != nil {
		return nil, err
	}
	runSpan := c.spanFrom(ctx, "fleet.run",
		obs.A("key", key), obs.A("rows", n.Rows()), obs.A("trials", n.Trials))
	r := &run{done: make(chan struct{}), span: runSpan, check: check}
	var tasks []*task
	size := c.cfg.chunkTrials()
	for row := 0; row < n.Rows(); row++ {
		var cached []*scenario.Chunk
		var todo [][2]int
		poisoned := false
		for lo := 0; lo < n.Trials; lo += size {
			hi := min(lo+size, n.Trials)
			if c.cfg.Store != nil {
				ck := scenario.ChunkKey(key, row, lo, hi)
				gs := runSpan.Span("store.get", obs.A("key", ck))
				data, ok := c.cfg.Store.Get(ck)
				gs.End(obs.A("hit", ok))
				if ok {
					var ch scenario.Chunk
					if json.Unmarshal(data, &ch) == nil {
						if check.Accept(&ch, row, lo, hi) == nil {
							cached = append(cached, &ch)
							continue
						}
						// An entry that fails the check after the row has
						// accepted cached chunks: it or the row's first
						// chunk, which fixed the row's metadata, may be
						// the bad one, so the whole row re-executes under
						// a fresh reference, and its write-through
						// replaces the bad entry wherever it is.
						if poisoned = len(cached) > 0; poisoned {
							break
						}
					}
					// A corrupt or truncated partial, or a malformed one
					// ahead of the row's cached chunks, falls through to a
					// fresh execution, whose write-through replaces the bad
					// entry — the same check complete() applies to worker
					// uploads applies here, or a parseable-but-malformed
					// cache file would fail every future merge of this spec.
				}
			}
			todo = append(todo, [2]int{lo, hi})
		}
		if poisoned {
			check.Forget(row)
			cached, todo = nil, nil
			for lo := 0; lo < n.Trials; lo += size {
				todo = append(todo, [2]int{lo, min(lo+size, n.Trials)})
			}
		}
		for _, ch := range cached {
			r.chunks = append(r.chunks, ch)
			c.cached.Add(1)
			runSpan.Event("chunk.cached",
				obs.A("row", row), obs.A("lo", ch.TrialLo), obs.A("hi", ch.TrialHi))
		}
		for _, t := range todo {
			tasks = append(tasks, &task{
				job: ChunkJob{Spec: *n, Row: row, TrialLo: t[0], TrialHi: t[1]},
				key: scenario.ChunkKey(key, row, t[0], t[1]),
				run: r,
			})
		}
	}
	r.remaining = len(tasks)
	if len(tasks) == 0 {
		return c.mergeRun(n, r)
	}

	c.mu.Lock()
	now := time.Now()
	c.expireLocked(now)
	if len(c.workers) == 0 {
		c.mu.Unlock()
		runSpan.End(obs.A("error", ErrNoWorkers.Error()))
		return nil, ErrNoWorkers
	}
	if len(c.pending)+len(tasks) > c.cfg.queueCap() {
		c.mu.Unlock()
		runSpan.End(obs.A("error", ErrBusy.Error()))
		return nil, ErrBusy
	}
	for _, t := range tasks {
		c.nextCID++
		t.id = fmt.Sprintf("chunk-%d", c.nextCID)
		t.job.ID = t.id // the lease travels with its identity
		c.tasks[t.id] = t
		c.pending = append(c.pending, t)
		runSpan.Event("chunk.queued", obs.A("chunk", t.id),
			obs.A("row", t.job.Row), obs.A("lo", t.job.TrialLo), obs.A("hi", t.job.TrialHi))
	}
	c.mu.Unlock()

	// Wait for the run, advancing the failure detectors ourselves: if every
	// worker dies nobody else would ever call expireLocked again.
	tickEvery := c.cfg.heartbeatTimeout() / 4
	if tickEvery < 10*time.Millisecond {
		tickEvery = 10 * time.Millisecond
	}
	tick := time.NewTicker(tickEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			c.mu.Lock()
			c.failRunLocked(r, ctx.Err())
			c.mu.Unlock()
			runSpan.End(obs.A("error", ctx.Err().Error()))
			return nil, ctx.Err()
		case <-r.done:
			c.mu.Lock()
			err := r.err
			c.mu.Unlock()
			if err != nil {
				runSpan.End(obs.A("error", err.Error()))
				return nil, err
			}
			return c.mergeRun(n, r)
		case <-tick.C:
			c.mu.Lock()
			c.expireLocked(time.Now())
			if len(c.workers) == 0 {
				c.failRunLocked(r, ErrNoWorkers)
			}
			c.mu.Unlock()
		}
	}
}

// mergeRun reassembles a finished run's chunks and closes its span. The
// run is finished: no concurrent writer touches r.chunks anymore.
func (c *Coordinator) mergeRun(n *scenario.Spec, r *run) (*scenario.Outcome, error) {
	ms := r.span.Span("merge", obs.A("chunks", len(r.chunks)))
	out, err := scenario.MergeChunks(n, r.chunks)
	if err != nil {
		ms.End(obs.A("error", err.Error()))
		r.span.End(obs.A("error", err.Error()))
		return nil, err
	}
	ms.End()
	r.span.End()
	return out, nil
}

// Execute runs the spec across the fleet when workers are attached,
// falling back to scenario.Run with the caller's options otherwise and on
// any ErrUnavailable — byte-identity makes the fallback invisible, and the
// fallback fetches graphs through opt.Graphs like any local run. Its
// signature is campaign.Options.Execute's (pinned by a compile-time
// assertion in the tests; fleet must not import campaign), so a
// coordinator plugs straight into campaign.Run: every scenario of the
// campaign then draws on this coordinator's single chunk queue — one
// shared fleet budget — as cmd/avgcampaign's -fleet-listen mode does.
// cached is always false: chunk-cache hits still merge into a fresh run.
func (c *Coordinator) Execute(spec *scenario.Spec, opt scenario.Options) (out *scenario.Outcome, cached bool, err error) {
	if c.Workers() > 0 {
		ctx := opt.Ctx
		if ctx == nil {
			ctx = context.Background()
		}
		out, err = c.RunScenario(ctx, spec)
		if err == nil || !errors.Is(err, ErrUnavailable) {
			return out, false, err
		}
		c.logf("fleet: unavailable (%v), running locally", err)
	}
	out, err = scenario.Run(spec, opt)
	return out, false, err
}

// Handler returns the coordinator's HTTP surface, rooted at /fleet/v1/.
// Mount it on the serving mux (the patterns carry the full path).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fleet/v1/register", c.handleRegister)
	mux.HandleFunc("POST /fleet/v1/poll", c.handlePoll)
	mux.HandleFunc("POST /fleet/v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /fleet/v1/complete", c.handleComplete)
	mux.HandleFunc("POST /fleet/v1/deregister", c.handleDeregister)
	mux.HandleFunc("GET /fleet/v1/stats", c.handleStats)
	return mux
}

// decodeBody strictly decodes a bounded, envelope-framed JSON body. A
// checksum failure — a corrupted upload — is a 400; the worker's retry
// paths resend.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, limit))
	if err != nil {
		fleetError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return false
	}
	payload, err := openEnvelope(body)
	if err != nil {
		fleetError(w, http.StatusBadRequest, err)
		return false
	}
	if err := scenario.DecodeStrict(payload, v); err != nil {
		fleetError(w, http.StatusBadRequest, fmt.Errorf("parsing request: %w", err))
		return false
	}
	return true
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if !decodeBody(w, r, 1<<16, &req) {
		return
	}
	fleetJSON(w, http.StatusOK, c.register(req.Name))
}

func (c *Coordinator) handlePoll(w http.ResponseWriter, r *http.Request) {
	var req pollRequest
	if !decodeBody(w, r, 1<<16, &req) {
		return
	}
	job, ok := c.poll(req.WorkerID)
	if !ok {
		// Gone tells the worker its registration lapsed; it re-registers.
		fleetError(w, http.StatusGone, fmt.Errorf("unknown worker %q", req.WorkerID))
		return
	}
	fleetJSON(w, http.StatusOK, pollResponse{Chunk: job})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !decodeBody(w, r, 1<<16, &req) {
		return
	}
	if !c.heartbeat(req.WorkerID, req.ChunkID) {
		fleetError(w, http.StatusGone, fmt.Errorf("unknown worker %q", req.WorkerID))
		return
	}
	fleetJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if !decodeBody(w, r, maxCompleteBody, &req) {
		return
	}
	if req.ChunkID == "" {
		fleetError(w, http.StatusBadRequest, errors.New("missing chunk_id"))
		return
	}
	fleetJSON(w, http.StatusOK, c.complete(&req))
}

func (c *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	var req deregisterRequest
	if !decodeBody(w, r, 1<<16, &req) {
		return
	}
	c.deregister(req.WorkerID)
	fleetJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleStats serves the human/ops diagnostic; it is plain JSON, not
// envelope-framed — only the worker protocol carries the integrity layer.
func (c *Coordinator) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	json.NewEncoder(w).Encode(c.Stats())
}

// fleetJSON writes an envelope-framed protocol response.
func fleetJSON(w http.ResponseWriter, status int, v any) {
	body, err := sealEnvelope(v)
	if err != nil {
		body, _ = sealEnvelope(errorResponse{Error: err.Error()})
		status = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

func fleetError(w http.ResponseWriter, status int, err error) {
	fleetJSON(w, status, errorResponse{Error: err.Error()})
}
