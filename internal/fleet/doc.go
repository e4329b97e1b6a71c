// Package fleet distributes scenario execution across worker processes
// with a bit-identical merge. The Coordinator shards a scenario spec's
// work — sweep rows × trials — into trial-range chunks, leases them to
// registered workers over a pull-based HTTP protocol, and reassembles the
// streamed-back per-trial partials (scenario.MergeChunks) into the exact
// Outcome bytes a single-process scenario.Run would produce. The identity
// holds because every random stream is counter-derived from (seed, row,
// trial) alone and the merge accumulates floats in trial order — never in
// arrival order — so worker count, chunk sizing, scheduling, retries and
// work stealing are all invisible in the output.
//
// The protocol is deliberately dumb and stateless on the worker side:
//
//	POST /fleet/v1/register   -> {worker_id, heartbeat_ms, poll_ms}
//	POST /fleet/v1/poll       {worker_id} -> {chunk} or {} when idle
//	POST /fleet/v1/heartbeat  {worker_id, chunk_id}
//	POST /fleet/v1/complete   {worker_id, chunk_id, chunk | error}
//
// A worker that stops heartbeating loses its leases: the affected chunks
// requeue (bounded by the retry budget) and another worker re-derives the
// same bytes. Stragglers are work-stolen — an idle poller may receive a
// duplicate lease for the oldest in-flight chunk; the first completion
// wins and duplicates are discarded, which is safe precisely because chunk
// results are deterministic. Completed chunks are written through to the
// result store under scenario.ChunkKey when one is configured, so a re-run
// after a coordinator or worker crash only re-executes the lost chunks.
//
// An upload that fails the run's scenario.ChunkChecker against its lease
// — wrong identity or trial count, a Meta that disagrees with the spec or
// with the row's first accepted chunk, or a trial whose node or edge array
// disagrees with that Meta — is refused and requeued like a lost lease; it
// never reaches the merge or the chunk cache. A cached chunk that fails
// the same check is re-executed; if its row had already accepted cached
// chunks, the whole row is, since the bad entry may be the one that fixed
// the row's Meta. FuzzCompleteUpload fuzzes the upload path.
//
// Infrastructure failures (no workers attached, a chunk lost beyond the
// DefaultMaxRetries budget) are reported as ErrUnavailable, distinct from
// deterministic execution errors: callers such as cmd/avgserve fall back
// to local execution on ErrUnavailable, which byte-identity makes
// transparent to clients. Coordinator.Execute is campaign.Options.Execute
// with that fallback built in: it calls scenario.Run with the caller's
// options, graph store included, and never reports a cached outcome.
package fleet
