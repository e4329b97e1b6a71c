package fleet

import "avgloc/internal/scenario"

// wireMagic heads every worker-protocol body (both directions), framed by
// cache.Seal as the stores frame their files: magic, hex sha256 of the
// JSON payload, newline, payload. The coordinator validates a completed
// chunk's shape against its lease, but a bit flip inside a poll response
// — a corrupted spec seed, a shifted trial bound — would otherwise
// execute cleanly and poison the merge with plausible wrong bytes. The
// checksum turns every in-flight corruption into a loud transport error,
// which the retry paths already handle.
const wireMagic = "avgfleet1 "

// wireContentType labels the framed bodies; they are not bare JSON.
const wireContentType = "application/octet-stream"

// ChunkJob is one leased unit of work: execute trials [TrialLo, TrialHi)
// of sweep row Row of Spec. The spec travels with every lease so workers
// stay stateless — a worker that just joined can execute any chunk.
type ChunkJob struct {
	ID      string        `json:"id"`
	Spec    scenario.Spec `json:"spec"`
	Row     int           `json:"row"`
	TrialLo int           `json:"trial_lo"`
	TrialHi int           `json:"trial_hi"`
}

type registerRequest struct {
	Name string `json:"name,omitempty"`
}

// registerResponse tells the worker its identity and the cadence the
// coordinator expects: heartbeat at HeartbeatMillis while executing, poll
// roughly every PollMillis while idle.
type registerResponse struct {
	WorkerID        string `json:"worker_id"`
	HeartbeatMillis int64  `json:"heartbeat_ms"`
	PollMillis      int64  `json:"poll_ms"`
}

type pollRequest struct {
	WorkerID string `json:"worker_id"`
}

// pollResponse carries a chunk lease, or nothing when the queue is empty
// and no straggler qualifies for stealing.
type pollResponse struct {
	Chunk *ChunkJob `json:"chunk,omitempty"`
}

type heartbeatRequest struct {
	WorkerID string `json:"worker_id"`
	ChunkID  string `json:"chunk_id"`
}

// completeRequest reports a chunk outcome: the per-trial partials on
// success, or the deterministic execution error. Worker loss is never
// reported — it is inferred from missed heartbeats.
type completeRequest struct {
	WorkerID string          `json:"worker_id"`
	ChunkID  string          `json:"chunk_id"`
	Chunk    *scenario.Chunk `json:"chunk,omitempty"`
	Error    string          `json:"error,omitempty"`
}

type completeResponse struct {
	Accepted bool `json:"accepted"`
}

// deregisterRequest announces a graceful departure (SIGTERM drain): the
// coordinator requeues the worker's leases immediately instead of waiting
// out the heartbeat timeout.
type deregisterRequest struct {
	WorkerID string `json:"worker_id"`
}

// errorResponse is the error rendering of every fleet endpoint.
type errorResponse struct {
	Error string `json:"error"`
}
