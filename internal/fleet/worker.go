package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"time"

	"avgloc/internal/graphstore"
	"avgloc/internal/obs"
	"avgloc/internal/scenario"
)

// Worker is the client side of the fleet protocol: register, pull chunks,
// execute them through the scenario layer, stream the partials back. It is
// stateless between chunks — everything needed to execute travels with the
// lease — so workers can join, crash and rejoin at any time.
type Worker struct {
	// Base is the coordinator base URL, e.g. "http://127.0.0.1:8080".
	Base string
	// Name is a free-form operator label shown in fleet stats.
	Name string
	// Parallelism fans one chunk's trials out locally (default 1). It has
	// no effect on the merged bytes.
	Parallelism int
	// Poll overrides the idle re-poll interval advertised by the
	// coordinator (0 = use the advertised cadence).
	Poll time.Duration
	// Client is the HTTP client (default http.DefaultClient). Per-call
	// deadlines are applied via request contexts derived from the heartbeat
	// cadence, so a client without its own timeout is safe; chaos testing
	// swaps in a fault-injecting Transport here.
	Client *http.Client
	// Seed drives the retry-backoff jitter stream (0 = derived from Name),
	// so a worker's retry schedule replays deterministically.
	Seed uint64
	// DrainGrace bounds how long heartbeats and the result upload of an
	// in-flight chunk keep running after the run context is cancelled
	// (SIGTERM drain). 0 selects DefaultDrainGrace; negative disables the
	// grace (immediate abandon).
	DrainGrace time.Duration
	// Logf, if non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// Trace, if non-nil, records the worker's side of every chunk — a
	// chunk.execute span around RunChunk and a chunk.upload span around the
	// result upload — into its own flight-recorder artifact.
	Trace *obs.Tracer
	// Graphs, if non-nil, is the graph store chunks fetch their graphs
	// through — typically disk-backed (-graph-cache-dir) so graphs survive
	// worker restarts. Nil falls back to the process-wide shared store:
	// either way the store persists across jobs, so a 64-chunk row builds
	// its graph once per worker process instead of 64 times.
	Graphs *graphstore.Store
}

// errLapsed reports a registration the coordinator no longer recognizes.
var errLapsed = fmt.Errorf("fleet: worker registration lapsed")

// DefaultDrainGrace is the default post-SIGTERM window for finishing and
// uploading the chunk in flight.
const DefaultDrainGrace = 30 * time.Second

// Retry backoff ramp for failed coordinator round-trips (register, poll,
// upload). The previous fixed 500ms sleep made every worker of a fleet
// hammer a recovering coordinator in lockstep.
const (
	backoffBase = 250 * time.Millisecond
	backoffMax  = 10 * time.Second
)

// minCallTimeout floors the per-call deadline so aggressive test heartbeat
// cadences (tens of ms) don't starve real round-trips.
const minCallTimeout = 2 * time.Second

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return http.DefaultClient
}

func (w *Worker) seed() uint64 {
	if w.Seed != 0 {
		return w.Seed
	}
	h := fnv.New64a()
	h.Write([]byte(w.Name))
	return h.Sum64()
}

func (w *Worker) drainGrace() time.Duration {
	if w.DrainGrace > 0 {
		return w.DrainGrace
	}
	if w.DrainGrace < 0 {
		return 0
	}
	return DefaultDrainGrace
}

// callTimeout bounds one small control round-trip (register, poll,
// heartbeat, deregister): a hung coordinator must not wedge the worker for
// longer than a few heartbeats. Chunk uploads get uploadTimeout — the
// payload can run to tens of megabytes.
func callTimeout(heartbeat time.Duration) time.Duration {
	t := 3 * heartbeat
	if t < minCallTimeout {
		t = minCallTimeout
	}
	return t
}

func uploadTimeout(heartbeat time.Duration) time.Duration {
	return 10 * callTimeout(heartbeat)
}

// Run drives the worker until ctx is cancelled: register (retrying while
// the coordinator is unreachable), then poll/execute/complete. A lapsed
// registration — the coordinator restarted, or deregistered us after a
// long GC pause — transparently re-registers. On cancellation the worker
// drains: the chunk in flight finishes and uploads (bounded by
// DrainGrace), then the worker deregisters so the coordinator requeues
// nothing and forgets it immediately.
func (w *Worker) Run(ctx context.Context) error {
	bo := NewBackoff(backoffBase, backoffMax, w.seed())
	regTimeout := callTimeout(DefaultHeartbeatTimeout / 3)
	for {
		reg, err := w.register(ctx, regTimeout)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.logf("avgworker: register: %v (retrying)", err)
			if !sleepCtx(ctx, bo.Next()) {
				return ctx.Err()
			}
			continue
		}
		bo.Reset()
		w.logf("avgworker: registered as %s at %s", reg.WorkerID, w.Base)
		err = w.loop(ctx, reg, bo)
		if err == errLapsed {
			w.logf("avgworker: registration lapsed, re-registering")
			continue
		}
		if ctx.Err() != nil {
			w.deregister(reg.WorkerID)
		}
		return err
	}
}

func (w *Worker) loop(ctx context.Context, reg registerResponse, bo *Backoff) error {
	idle := w.Poll
	if idle <= 0 {
		idle = time.Duration(reg.PollMillis) * time.Millisecond
	}
	if idle <= 0 {
		idle = DefaultPollInterval
	}
	heartbeat := time.Duration(reg.HeartbeatMillis) * time.Millisecond
	if heartbeat <= 0 {
		heartbeat = DefaultHeartbeatTimeout / 3
	}
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		job, err := w.poll(ctx, reg.WorkerID, callTimeout(heartbeat))
		if err == errLapsed {
			return err
		}
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.logf("avgworker: poll: %v (retrying)", err)
			if !sleepCtx(ctx, bo.Next()) {
				return ctx.Err()
			}
			continue
		}
		bo.Reset()
		if job == nil {
			if !sleepCtx(ctx, idle) {
				return ctx.Err()
			}
			continue
		}
		w.executeAndReport(ctx, reg.WorkerID, job, heartbeat, bo)
	}
}

// executeAndReport runs one chunk, heartbeating while it executes, and
// uploads the result. Execution errors are reported to the coordinator —
// they are deterministic, so the coordinator fails the run instead of
// retrying them elsewhere. The heartbeats and the upload survive ctx
// cancellation for DrainGrace: the chunk's work is already paid for, so a
// drain ships it instead of forcing a re-execution elsewhere.
func (w *Worker) executeAndReport(ctx context.Context, workerID string, job *ChunkJob, heartbeat time.Duration, bo *Backoff) {
	opCtx, cancelOp := context.WithCancel(context.WithoutCancel(ctx))
	defer cancelOp()
	go func() {
		select {
		case <-opCtx.Done():
		case <-ctx.Done():
			grace := time.NewTimer(w.drainGrace())
			defer grace.Stop()
			select {
			case <-opCtx.Done():
			case <-grace.C:
				cancelOp()
			}
		}
	}()
	hbCtx, stopHB := context.WithCancel(opCtx)
	go func() {
		tick := time.NewTicker(heartbeat)
		defer tick.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-tick.C:
				req := heartbeatRequest{WorkerID: workerID, ChunkID: job.ID}
				var resp map[string]bool
				if err := w.post(hbCtx, "/fleet/v1/heartbeat", callTimeout(heartbeat), req, &resp); err != nil && hbCtx.Err() == nil {
					w.logf("avgworker: heartbeat %s: %v", job.ID, err)
				}
			}
		}
	}()
	par := w.Parallelism
	if par < 1 {
		par = 1
	}
	start := time.Now()
	execSpan := w.Trace.Span(nil, "chunk.execute", obs.A("chunk", job.ID),
		obs.A("worker", workerID), obs.A("row", job.Row), obs.A("lo", job.TrialLo), obs.A("hi", job.TrialHi))
	chunk, err := scenario.RunChunk(&job.Spec, job.Row, job.TrialLo, job.TrialHi, scenario.Options{
		Parallelism: par,
		Graphs:      w.Graphs,
		// The execute span parents graph.build/graph.load, so the worker's
		// trace artifact shows whether each chunk's graph was cached.
		Ctx: obs.With(context.Background(), execSpan),
	})
	stopHB()
	req := completeRequest{WorkerID: workerID, ChunkID: job.ID}
	if err != nil {
		req.Error = err.Error()
		execSpan.End(obs.A("error", err.Error()))
		w.logf("avgworker: chunk %s failed: %v", job.ID, err)
	} else {
		req.Chunk = chunk
		execSpan.End(obs.A("trials", len(chunk.Trials)))
		w.logf("avgworker: chunk %s (row %d trials [%d, %d)) done in %v",
			job.ID, job.Row, job.TrialLo, job.TrialHi, time.Since(start).Round(time.Millisecond))
	}
	// Retry the upload a few times: the result cost real work, and a
	// transient coordinator hiccup should not force a full re-execution.
	upSpan := w.Trace.Span(nil, "chunk.upload", obs.A("chunk", job.ID), obs.A("worker", workerID))
	for attempt := 0; ; attempt++ {
		var resp completeResponse
		err := w.post(opCtx, "/fleet/v1/complete", uploadTimeout(heartbeat), req, &resp)
		if err == nil {
			bo.Reset()
			upSpan.End(obs.A("attempts", attempt+1))
			return
		}
		if err == errLapsed || opCtx.Err() != nil || attempt >= 3 {
			if opCtx.Err() == nil {
				w.logf("avgworker: complete %s: %v (dropping; coordinator will requeue)", job.ID, err)
			}
			upSpan.End(obs.A("attempts", attempt+1), obs.A("error", err.Error()))
			return
		}
		if !sleepCtx(opCtx, bo.Next()) {
			upSpan.End(obs.A("attempts", attempt+1), obs.A("error", "cancelled"))
			return
		}
	}
}

func (w *Worker) register(ctx context.Context, timeout time.Duration) (registerResponse, error) {
	var resp registerResponse
	err := w.post(ctx, "/fleet/v1/register", timeout, registerRequest{Name: w.Name}, &resp)
	if err == nil && resp.WorkerID == "" {
		err = fmt.Errorf("fleet: register returned no worker id")
	}
	return resp, err
}

func (w *Worker) poll(ctx context.Context, workerID string, timeout time.Duration) (*ChunkJob, error) {
	var resp pollResponse
	if err := w.post(ctx, "/fleet/v1/poll", timeout, pollRequest{WorkerID: workerID}, &resp); err != nil {
		return nil, err
	}
	return resp.Chunk, nil
}

// deregister announces a graceful departure. The run context is already
// cancelled when this runs, so it uses a fresh short-deadline context;
// failure is harmless — the coordinator's heartbeat timeout reclaims the
// registration anyway.
func (w *Worker) deregister(workerID string) {
	ctx, cancel := context.WithTimeout(context.Background(), minCallTimeout)
	defer cancel()
	var resp map[string]bool
	if err := w.post(ctx, "/fleet/v1/deregister", minCallTimeout, deregisterRequest{WorkerID: workerID}, &resp); err != nil && err != errLapsed {
		w.logf("avgworker: deregister: %v", err)
	} else {
		w.logf("avgworker: deregistered %s", workerID)
	}
}

// post is one envelope-framed JSON round-trip against the coordinator,
// bounded by timeout. 410 Gone maps to errLapsed; other non-200 statuses
// surface the server's error line. A checksum failure on the response —
// in-flight corruption or truncation — is an error, never silently
// decoded.
func (w *Worker) post(ctx context.Context, path string, timeout time.Duration, in, out any) error {
	body, err := sealEnvelope(in)
	if err != nil {
		return err
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusGone {
		return errLapsed
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		var e errorResponse
		if payload, perr := openEnvelope(raw); perr == nil && json.Unmarshal(payload, &e) == nil && e.Error != "" {
			return fmt.Errorf("fleet: %s: %s (HTTP %d)", path, e.Error, resp.StatusCode)
		}
		return fmt.Errorf("fleet: %s: HTTP %d", path, resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	payload, err := openEnvelope(raw)
	if err != nil {
		return err
	}
	return json.Unmarshal(payload, out)
}

// sleepCtx sleeps for d or until ctx is done; it reports whether the
// caller should continue.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
