package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"sync"
	"time"

	"avgloc/internal/campaign"
	"avgloc/internal/fleet"
	"avgloc/internal/graphstore"
	"avgloc/internal/obs"
	"avgloc/internal/registry"
	"avgloc/internal/resultstore"
	"avgloc/internal/scenario"
)

// jobStatus values.
const (
	statusQueued  = "queued"
	statusRunning = "running"
	statusDone    = "done"
	statusError   = "error"
)

// job is one scenario execution request moving through the worker pool.
// Sync requests wait on done; async requests poll by id.
type job struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Key    string `json:"key,omitempty"`
	Cached bool   `json:"cached"`
	Error  string `json:"error,omitempty"`

	spec   *scenario.Spec
	result []byte
	done   chan struct{}
	// ctx bounds the job's execution under -request-timeout. The clock
	// starts at submission — queue wait counts against the deadline — and
	// the job owns its context rather than borrowing the HTTP request's,
	// because deduped jobs are shared: one waiter disconnecting must not
	// cancel a result other waiters (and the cache) still want.
	ctx    context.Context
	cancel context.CancelFunc
}

// server routes HTTP requests into a bounded worker pool over the scenario
// layer, with the result store in front of every execution and, in fleet
// mode, a fleet.Coordinator behind it.
type server struct {
	mux      *http.ServeMux
	store    *resultstore.Store
	graphs   *graphstore.Store
	par      int // scenario.Options.Parallelism: per-run budget over rows × trials
	workers  int
	queue    chan *job
	queueCap int
	retain   int // finished jobs kept for polling before pruning
	coord    *fleet.Coordinator
	// requestTimeout bounds one job from submission to completion (0 =
	// unbounded); it propagates as a context through scenario and fleet
	// execution, so an expired request stops computing rows.
	requestTimeout time.Duration
	// reg is the unified metrics registry: both GET /v1/metrics (legacy
	// JSON) and GET /metrics (Prometheus text) read the same atomics.
	reg *obs.Registry
	// traceDir, when non-empty, makes every executed job write a flight
	// recorder artifact at <traceDir>/<key>.trace.ndjson.
	traceDir string

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string        // job ids in submission order, for pruning
	inflight map[string]*job // cache key -> queued/running job, for dedup
	nextID   int

	// Traffic counters are registry atomics (obs.Counter): incremented
	// from the handler pool and worker goroutines without holding s.mu,
	// and read identically by both metrics endpoints. Store hit/miss
	// counts live in the store's own Stats.
	jobsTotal        *obs.Counter
	runsCompleted    *obs.Counter
	runsFailed       *obs.Counter
	runsCached       *obs.Counter
	campaignsTotal   *obs.Counter
	deadlineExceeded *obs.Counter // runs killed by -request-timeout
	runSeconds       *obs.Histogram
	// ewmaRunSec tracks the observed per-run duration (exponential moving
	// average), feeding the dynamic Retry-After computation. It stays
	// under s.mu: the fold is a read-modify-write, not a counter.
	ewmaRunSec float64
}

// serverConfig parameterizes newServerCfg; zero values select defaults.
type serverConfig struct {
	store *resultstore.Store
	// workers is the pool size (0 = off: jobs queue but never execute —
	// only tests use that, to exercise the overload path deterministically).
	workers  int
	par      int
	queueCap int                // dispatch queue bound (default 256)
	coord    *fleet.Coordinator // nil = local execution only
	// requestTimeout bounds one job end to end (0 = unbounded).
	requestTimeout time.Duration
	// traceDir enables per-job flight-recorder artifacts ("" = off).
	traceDir string
	// pprof mounts net/http/pprof under /debug/pprof/.
	pprof bool
	// graphs is the graph artifact store local execution fetches graphs
	// through (nil = a fresh memory-only store; -graph-cache-dir makes it
	// disk-backed so a restarted server rebuilds nothing).
	graphs *graphstore.Store
}

// newServerCfg starts cfg.workers pool goroutines and returns the ready
// server. cfg.par is each scenario run's scenario.Options.Parallelism:
// one worker budget per job, shared by its sweep rows and their trials;
// because every random stream is counter-derived from the master seed,
// responses are bit-identical at any (workers, par) combination.
func newServerCfg(cfg serverConfig) *server {
	if cfg.queueCap <= 0 {
		cfg.queueCap = 256
	}
	if cfg.graphs == nil {
		cfg.graphs, _ = graphstore.New(0, "")
	}
	s := &server{
		mux:            http.NewServeMux(),
		store:          cfg.store,
		graphs:         cfg.graphs,
		par:            cfg.par,
		workers:        cfg.workers,
		queue:          make(chan *job, cfg.queueCap),
		queueCap:       cfg.queueCap,
		retain:         4096,
		coord:          cfg.coord,
		requestTimeout: cfg.requestTimeout,
		reg:            obs.NewRegistry(),
		traceDir:       cfg.traceDir,
		jobs:           make(map[string]*job),
		inflight:       make(map[string]*job),
	}
	s.registerMetrics()
	for w := 0; w < cfg.workers; w++ {
		go s.worker()
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.Handle("GET /metrics", s.reg.Handler())
	if cfg.pprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.mux.HandleFunc("GET /v1/registry", s.handleRegistry)
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/campaigns", s.handleCampaign)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("GET /v1/reports/{key}", s.handleReport)
	if s.coord != nil {
		s.mux.Handle("/fleet/v1/", s.coord.Handler())
	}
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// registerMetrics names every observable of the process on the unified
// registry. The catalogue is documented in README.md ("Observability").
func (s *server) registerMetrics() {
	s.jobsTotal = s.reg.Counter("avg_jobs_total", "Jobs registered (cached, deduped and executed).")
	s.runsCompleted = s.reg.Counter("avg_runs_completed_total", "Jobs that finished with a result.")
	s.runsFailed = s.reg.Counter("avg_runs_failed_total", "Jobs that finished with an error.")
	s.runsCached = s.reg.Counter("avg_runs_cached_total", "Jobs answered from the result store without executing.")
	s.campaignsTotal = s.reg.Counter("avg_campaigns_total", "Campaign documents accepted.")
	s.deadlineExceeded = s.reg.Counter("avg_deadline_exceeded_total", "Runs killed by the -request-timeout deadline.")
	s.runSeconds = s.reg.Histogram("avg_run_seconds", "Wall-clock duration of executed (non-cached) runs.")
	s.reg.GaugeFunc("avg_in_flight", "Jobs queued or running (deduped).", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.inflight))
	})
	s.reg.GaugeFunc("avg_queue_depth", "Jobs waiting in the dispatch queue.", func() float64 {
		return float64(len(s.queue))
	})
	s.reg.GaugeFunc("avg_retry_after_seconds", "Current Retry-After hint handed to shed requests.", func() float64 {
		return float64(s.retryAfter())
	})
	s.store.RegisterMetrics(s.reg)
	s.graphs.RegisterMetrics(s.reg)
	s.coord.RegisterMetrics(s.reg) // avg_runs_fleet_total alone when s.coord is nil
}

func (s *server) worker() {
	for j := range s.queue {
		s.execute(j)
	}
}

// execute runs one job: fleet.Coordinator.Execute in -fleet mode (it
// picks the fleet or local execution; byte-identity makes the choice
// invisible to clients), scenario.Run otherwise, then a write-through
// Put. The stored bytes are the response bytes, so repeat requests are
// served bit-identically. A persistence failure degrades to a cache miss
// on the next request; it never fails a computed result.
func (s *server) execute(j *job) {
	s.setStatus(j, statusRunning, "")
	start := time.Now()
	// With -trace-dir set, every executed job writes its own flight
	// recorder artifact keyed by the run hash. Tracer errors are logged,
	// never fatal: a nil tracer (and nil span) no-ops all recording.
	var tracer *obs.Tracer
	if s.traceDir != "" {
		var terr error
		tracer, terr = obs.Create(filepath.Join(s.traceDir, j.Key+".trace.ndjson"), "avgserve.job",
			obs.A("job", j.ID), obs.A("key", j.Key))
		if terr != nil {
			log.Printf("avgserve: trace artifact for %s: %v", j.Key, terr)
		}
	}
	reqSpan := tracer.Span(nil, "request", obs.A("job", j.ID), obs.A("key", j.Key))
	ctx := obs.With(j.ctx, reqSpan)
	opt := scenario.Options{Parallelism: s.par, Ctx: ctx, Graphs: s.graphs}
	var out *scenario.Outcome
	var err error
	if s.coord != nil {
		out, _, err = s.coord.Execute(j.spec, opt)
	} else {
		out, err = scenario.Run(j.spec, opt)
	}
	if j.cancel != nil {
		j.cancel()
	}
	var data []byte
	if err == nil {
		data, err = out.MarshalStable()
	}
	if err == nil {
		sec := time.Since(start).Seconds()
		s.noteRunSeconds(sec)
		s.runSeconds.Observe(sec)
		ps := reqSpan.Span("store.put", obs.A("key", j.Key))
		perr := s.store.Put(j.Key, data)
		ps.End()
		if perr != nil {
			log.Printf("avgserve: caching %s: %v", j.Key, perr)
		}
	}
	if err != nil {
		reqSpan.End(obs.A("error", err.Error()))
	} else {
		reqSpan.End(obs.A("bytes", len(data)))
	}
	if cerr := tracer.Close(); cerr != nil {
		log.Printf("avgserve: closing trace artifact for %s: %v", j.Key, cerr)
	}
	s.mu.Lock()
	if err != nil {
		j.Status = statusError
		j.Error = err.Error()
		s.runsFailed.Inc()
		if errors.Is(err, context.DeadlineExceeded) {
			s.deadlineExceeded.Inc()
		}
	} else {
		j.result = data
		j.Status = statusDone
		s.runsCompleted.Inc()
	}
	delete(s.inflight, j.Key)
	s.mu.Unlock()
	close(j.done)
}

// noteRunSeconds folds one completed run's duration into the drain-rate
// EWMA behind the dynamic Retry-After.
func (s *server) noteRunSeconds(sec float64) {
	const alpha = 0.3
	s.mu.Lock()
	if s.ewmaRunSec == 0 {
		s.ewmaRunSec = sec
	} else {
		s.ewmaRunSec = alpha*sec + (1-alpha)*s.ewmaRunSec
	}
	s.mu.Unlock()
}

func (s *server) setStatus(j *job, status, errMsg string) {
	s.mu.Lock()
	j.Status = status
	j.Error = errMsg
	s.mu.Unlock()
}

// newJobLocked registers a job and prunes the oldest finished jobs beyond
// the retention bound, so a long-running server's job index stays bounded.
// Caller holds s.mu.
func (s *server) newJobLocked(key string, spec *scenario.Spec) *job {
	s.nextID++
	s.jobsTotal.Inc()
	j := &job{
		ID:     fmt.Sprintf("job-%d", s.nextID),
		Status: statusQueued,
		Key:    key,
		spec:   spec,
		done:   make(chan struct{}),
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	for len(s.jobs) > s.retain && len(s.order) > 0 {
		oldest := s.jobs[s.order[0]]
		if oldest != nil && oldest.Status != statusDone && oldest.Status != statusError {
			break // still queued/running; active jobs are bounded by the queue
		}
		delete(s.jobs, s.order[0])
		s.order = s.order[1:]
	}
	return j
}

// submit validates the spec, computes its cache key and either completes
// the job from the store (Cached), joins an identical in-flight job, or
// enqueues a new execution.
func (s *server) submit(spec *scenario.Spec) (*job, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	key, err := norm.Key()
	if err != nil {
		return nil, err
	}
	if data, ok := s.store.Get(key); ok {
		s.mu.Lock()
		j := s.newJobLocked(key, norm)
		j.result = data
		j.Status = statusDone
		j.Cached = true
		s.runsCached.Inc()
		s.mu.Unlock()
		close(j.done)
		return j, nil
	}
	s.mu.Lock()
	// Identical scenario already queued or running: share it instead of
	// simulating the same deterministic result twice.
	if cur, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		return cur, nil
	}
	j := s.newJobLocked(key, norm)
	// The request deadline starts now: queue wait counts against it, so an
	// overloaded server sheds expired work instead of executing it late.
	j.ctx = context.Background()
	if s.requestTimeout > 0 {
		j.ctx, j.cancel = context.WithTimeout(j.ctx, s.requestTimeout)
	}
	// Enqueue while still holding the lock (the send never blocks): the job
	// becomes visible through inflight only once it is guaranteed to run, so
	// a concurrent identical request can never join a job whose done channel
	// would never close.
	select {
	case s.queue <- j:
		s.inflight[key] = j
		s.mu.Unlock()
	default:
		delete(s.jobs, j.ID) // the stale order entry is skipped by pruning
		if j.cancel != nil {
			j.cancel()
		}
		s.mu.Unlock()
		return nil, errQueueFull
	}
	return j, nil
}

// errQueueFull is transient overload, reported as 503 (retryable) rather
// than 400 (permanent). The submit path never blocks the handler on a full
// queue — it fails fast here.
var errQueueFull = errors.New("avgserve: job queue full, retry later")

// submitStatus maps a submit error to its HTTP status.
func submitStatus(err error) int {
	if errors.Is(err, errQueueFull) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// computeRetryAfter turns queue depth and the observed drain rate into a
// Retry-After hint: the estimated seconds until the queue has room, i.e.
// depth runs served by `workers` pool slots at ewmaSec seconds each,
// clamped to [1, 30]. Before any run has completed (ewmaSec 0) it answers
// 1 — the optimistic constant the server used to hardcode.
func computeRetryAfter(depth, workers int, ewmaSec float64) int {
	if workers < 1 {
		workers = 1
	}
	if ewmaSec <= 0 {
		return 1
	}
	sec := int(math.Ceil(float64(depth) * ewmaSec / float64(workers)))
	if sec < 1 {
		sec = 1
	}
	if sec > 30 {
		sec = 30
	}
	return sec
}

// retryAfter snapshots the current Retry-After hint in seconds.
func (s *server) retryAfter() int {
	s.mu.Lock()
	ewma := s.ewmaRunSec
	s.mu.Unlock()
	return computeRetryAfter(len(s.queue), s.workers, ewma)
}

// submitError reports a submit failure, adding Retry-After on overload so
// well-behaved clients back off instead of hammering a full queue.
func (s *server) submitError(w http.ResponseWriter, err error) {
	status := submitStatus(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfter()))
	}
	httpError(w, status, err)
}

// decodeJSON strictly decodes a bounded request body into v. Unknown
// fields are rejected: silently dropping a misspelled "trials" would run
// (and cache) a different scenario than the client asked for. Reports the
// HTTP error itself and returns false on failure.
func decodeJSON(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return false
	}
	if err := scenario.DecodeStrict(body, v); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("parsing %s: %w", what, err))
		return false
	}
	return true
}

func (s *server) decodeSpec(w http.ResponseWriter, r *http.Request) *scenario.Spec {
	var spec scenario.Spec
	if !decodeJSON(w, r, "scenario", &spec) {
		return nil
	}
	return &spec
}

func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "store": s.store.Stats()})
}

// metrics is the GET /v1/metrics document: store traffic (hits, misses,
// puts, evictions), the live in-flight job count, dispatch-queue depth,
// completed-run totals, and — in fleet mode — the coordinator's queue and
// per-worker chunk counters. These are the observables behind the
// cache-dedupe and fleet-dispatch guarantees: a client can verify that a
// repeated campaign executed nothing, or that a run really fanned out
// across workers.
type metrics struct {
	Store resultstore.Stats `json:"store"`
	// GraphStore is the graph artifact store's traffic: builds counts
	// generator invocations, so a warm -graph-cache-dir restart shows
	// builds=0 on a repeated sweep (the CI smoke asserts exactly that).
	GraphStore     graphstore.Stats `json:"graphstore"`
	InFlight       int              `json:"in_flight"`
	QueueDepth     int              `json:"queue_depth"`
	QueueCap       int              `json:"queue_cap"`
	JobsTotal      int64            `json:"jobs_total"`
	RunsCompleted  int64            `json:"runs_completed"`
	RunsFailed     int64            `json:"runs_failed"`
	RunsCached     int64            `json:"runs_cached"`
	RunsFleet      int64            `json:"runs_fleet"`
	CampaignsTotal int64            `json:"campaigns_total"`
	// Degradation observables: every hardened failure path leaves a count
	// here, so degraded service is visible rather than silent.
	DeadlineExceeded  int64 `json:"deadline_exceeded"`
	StoreQuarantined  int64 `json:"store_quarantined"`
	RetryAfterSeconds int   `json:"retry_after_seconds"` // current 503 hint
	// Fleet is present only in -fleet mode: attached-worker count plus the
	// coordinator's chunk queue and per-worker counters (chunks_retried /
	// chunks_stolen / chunks_duplicate are the fleet retry counters), and
	// the dispatch circuit breaker's state.
	FleetWorkers      int          `json:"fleet_workers,omitempty"`
	FleetBreakerState string       `json:"fleet_breaker_state,omitempty"`
	FleetBreakerTrips int64        `json:"fleet_breaker_trips,omitempty"`
	Fleet             *fleet.Stats `json:"fleet,omitempty"`
}

func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.store.Stats()
	var fs *fleet.Stats
	if s.coord != nil {
		snap := s.coord.Stats()
		fs = &snap
	}
	retryAfter := s.retryAfter()
	s.mu.Lock()
	inFlight := len(s.inflight)
	s.mu.Unlock()
	m := metrics{
		Store:             st,
		GraphStore:        s.graphs.Stats(),
		InFlight:          inFlight,
		QueueDepth:        len(s.queue),
		QueueCap:          s.queueCap,
		JobsTotal:         s.jobsTotal.Value(),
		RunsCompleted:     s.runsCompleted.Value(),
		RunsFailed:        s.runsFailed.Value(),
		RunsCached:        s.runsCached.Value(),
		RunsFleet:         s.coord.RunsFleet(),
		CampaignsTotal:    s.campaignsTotal.Value(),
		DeadlineExceeded:  s.deadlineExceeded.Value(),
		StoreQuarantined:  st.Quarantined,
		RetryAfterSeconds: retryAfter,
		Fleet:             fs,
	}
	if fs != nil {
		m.FleetWorkers = len(fs.Workers)
		m.FleetBreakerState = s.coord.Breaker().State()
		m.FleetBreakerTrips = s.coord.Breaker().Trips()
	}
	writeJSON(w, http.StatusOK, m)
}

// handleRegistry lists every graph family and algorithm entry.
func (s *server) handleRegistry(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"graphs":     registry.Graphs(),
		"algorithms": registry.Algorithms(),
	})
}

// handleRun executes a scenario synchronously. The response body comes from
// the result store, so a repeat request returns byte-identical JSON; the
// X-Avgserve-Cache header says whether this request hit the cache.
func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	spec := s.decodeSpec(w, r)
	if spec == nil {
		return
	}
	j, err := s.submit(spec)
	if err != nil {
		s.submitError(w, err)
		return
	}
	<-j.done
	s.mu.Lock()
	result, errMsg, cached := j.result, j.Error, j.Cached
	s.mu.Unlock()
	if errMsg != "" {
		httpError(w, http.StatusUnprocessableEntity, fmt.Errorf("%s", errMsg))
		return
	}
	cache := "miss"
	if cached {
		cache = "hit"
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Avgserve-Cache", cache)
	w.Header().Set("X-Avgserve-Key", j.Key)
	w.WriteHeader(http.StatusOK)
	w.Write(result)
}

// campaignScenarioEvent is one per-scenario NDJSON line of the campaign
// stream; campaignVerdictEvent is its final line.
type campaignScenarioEvent struct {
	Type   string `json:"type"` // "scenario"
	Index  int    `json:"index"`
	Name   string `json:"name"`
	Status string `json:"status"` // done | error
	Key    string `json:"key,omitempty"`
	Cached bool   `json:"cached"`
	Error  string `json:"error,omitempty"`
}

type campaignVerdictEvent struct {
	Type   string           `json:"type"` // "verdict"
	Report *campaign.Report `json:"report"`
}

// handleCampaign runs a declarative campaign through campaign.Run with the
// job table as its executor (runJob), then streams one NDJSON scenario
// line per item in campaign order and a final verdict line. It passes no
// context: jobs own their deadlines, and a client that goes away must not
// cancel jobs that other waiters and the cache share.
func (s *server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	var c campaign.Campaign
	if !decodeJSON(w, r, "campaign", &c) {
		return
	}
	if err := c.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.campaignsTotal.Inc()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	writing := true
	emit := func(v any) {
		// After a failed write, stop writing; the jobs finish and stay cached.
		if writing = writing && enc.Encode(v) == nil; writing && flusher != nil {
			flusher.Flush()
		}
	}
	rep, err := campaign.Run(&c, campaign.Options{
		// Submit every unique scenario at once; jobs run at s.par.
		Parallelism: len(c.Scenarios),
		Execute:     s.runJob,
		OnScenario: func(run campaign.ScenarioRun) {
			status := statusDone
			if run.Err != "" {
				status = statusError
			}
			emit(campaignScenarioEvent{Type: "scenario", Index: run.Index, Name: run.Name,
				Status: status, Key: run.Key, Cached: run.Cached, Error: run.Err})
		},
	})
	if err != nil {
		log.Printf("avgserve: running campaign: %v", err)
		return
	}
	emit(campaignVerdictEvent{Type: "verdict", Report: rep})
}

// runJob is campaign.Options.Execute over the job table, the same submit
// path as /v1/run: it submits the spec, waits and decodes the job's bytes.
func (s *server) runJob(spec *scenario.Spec, _ scenario.Options) (*scenario.Outcome, bool, error) {
	j, err := s.submit(spec)
	if err != nil {
		return nil, false, err
	}
	<-j.done
	s.mu.Lock()
	status, result, errMsg, cached := j.Status, j.result, j.Error, j.Cached
	s.mu.Unlock()
	if status == statusError {
		return nil, cached, errors.New(errMsg)
	}
	var out scenario.Outcome
	if err := json.Unmarshal(result, &out); err != nil {
		return nil, cached, fmt.Errorf("decoding cached outcome: %v", err)
	}
	return &out, cached, nil
}

// handleSubmit enqueues a scenario and returns the job id immediately.
func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec := s.decodeSpec(w, r)
	if spec == nil {
		return
	}
	j, err := s.submit(spec)
	if err != nil {
		s.submitError(w, err)
		return
	}
	s.mu.Lock()
	snapshot := *j
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, snapshot)
}

func (s *server) lookupJob(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return nil
	}
	return j
}

// handleJob reports a job's status for polling.
func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	snapshot := *j
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, snapshot)
}

// handleJobResult serves a finished job's report bytes (404 until done).
func (s *server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	status, result, errMsg := j.Status, j.result, j.Error
	s.mu.Unlock()
	switch status {
	case statusDone:
		w.Header().Set("Content-Type", "application/json")
		w.Write(result)
	case statusError:
		httpError(w, http.StatusUnprocessableEntity, fmt.Errorf("%s", errMsg))
	default:
		httpError(w, http.StatusNotFound, fmt.Errorf("job %s is %s", j.ID, status))
	}
}

// handleReport serves a cached report by its (hash, seed) key.
func (s *server) handleReport(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	data, ok := s.store.Get(key)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no cached report for key %q", key))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
