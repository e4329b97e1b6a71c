// Package avgloc reproduces "Node and Edge Averaged Complexities of Local
// Graph Problems" (Balliu, Ghaffari, Kuhn, Olivetti; PODC 2022,
// arXiv:2208.08213) as a Go library: a synchronous LOCAL/CONGEST
// simulator, the paper's averaged-complexity measures, its algorithms
// (MIS, ruling sets, maximal matching, sinkless orientation) and its
// KMW-style lower-bound constructions, together with campaigns that judge
// the paper's claims (campaigns/paper.json, campaigns/experiments.json;
// README.md; PAPER.md has the paper's abstract).
//
// Entry points:
//
//	internal/core        — problems, runners, measurement
//	internal/registry    — named graph families and algorithms (data-driven workload selection)
//	internal/scenario    — declarative JSON scenario specs with canonical content hashes
//	internal/cache       — the storage tier both stores share: checksummed, bounded, quarantining disk directory + cost-bounded LRU
//	internal/graphstore  — content-addressed graph artifacts (CSR files) on internal/cache, plus singleflight builds
//	internal/resultstore — result cache keyed by (hash, seed) on internal/cache (optional disk persistence)
//	internal/fit         — growth-class classification of measured sweeps; frozen closed-form models
//	internal/campaign    — hypothesis campaigns: scenarios + claims → verdicts
//	internal/fleet       — distributed chunk execution with bit-identical merge
//	cmd/avgserve         — HTTP measurement service over the scenario layer (-fleet: coordinator)
//	cmd/avgworker        — stateless fleet worker process
//	cmd/avgcampaign      — run a campaign file, render the verdict table
//	cmd/localsim         — one scenario from the command line, registry-driven
//	examples/            — runnable walkthroughs
//
// # Executors
//
// The round engine (internal/runtime) has one executor and one programming
// model: every node program is a state machine whose Round method the
// engine calls once per synchronous round. The executor keeps an active
// worklist of exactly the non-halted nodes — a node leaves the worklist at
// its halt round — so the cost of a round is proportional to the surviving
// frontier, not to n; under the paper's node-averaged regime, simulation
// work is Θ(Σ_v T_v) rather than Θ(n · max T_v). The multi-phase
// deterministic algorithms (Linial, Kuhn–Wattenhofer, Cole–Vishkin, the
// color-class MIS sweep) are resumable stages in internal/alg/coloring
// that programs chain in lockstep. Engine reuse (runtime.NewEngine) keeps
// all per-run buffers in graph-sized arenas across repeated trials: the
// engine borrows the graph's CSR offsets, twin-arc and arc-head arrays
// instead of copying them, a Broadcast writes one pointer-free 16-byte
// runtime.Message into its sender's slot, from which each receiver gathers
// its inbox, a Send copies the message straight into the receiver's slot
// of an arc-indexed next-round buffer that exists only once some run on
// the engine sends, an algorithm builds every node's program into one
// slab that the engine hands back on the next run, and outputs are int32
// columns whose commit ledger (NodeCommit/EdgeCommit == -1) marks what was
// never committed. The round loop allocates nothing: a trial on a reused
// engine allocates only its Result columns.
//
// # Measurement distributions
//
// Every core.Report carries a Dist block (measure.Dist): exact nearest-rank
// p50/p90/p99/max quantiles and a fixed-bucket log₂ histogram of the
// per-node and per-edge expected completion times, plus the across-trial
// sample variance of the run-level averages. This is the distribution the
// paper's averaged measures summarize — most nodes finish in O(1) rounds
// while a vanishing fraction pays the worst case — made inspectable:
// scenario reports carry it per row, and `localsim -dist` renders the full
// block. Quantiles are exact, never sketched: the per-element sums of
// integer rounds are ranked by a counting pass when the largest is at most
// the element count, and by a sort otherwise, into scratch buffers the
// aggregator reuses.
//
// # Deterministic parallelism
//
// campaign.Run's scenarios, scenario.Run's sweep rows and
// core.MeasureRange's trials run on pools that draw their goroutines from
// one core.Budget of Parallelism tokens, found through the context that
// campaign.Run passes down (scenario.Run or MeasureRange called alone
// makes its own). The goroutine that opens a pool is its first worker,
// a worker starts a helper whenever it takes an index with more left and
// a token is free, and a pool's caller lends its token back while it
// waits, so the nest never runs more than Parallelism workers and no
// token sits unused while a pool has indices left to hand out. Every
// random stream is derived from the master seed and the (row, trial)
// indices alone: identifier permutations and graph generation use
// counter-keyed PCG streams, while algorithm seeds and
// per-row measurement seeds go through SplitMix64-finalized counter
// derivations (internal/seedmix; a plain additive stride would let related
// master seeds share shifted streams). Outcomes merge in row/trial order,
// so reports, scenario outcomes and campaign reports are bit-identical at
// every parallelism level. Performance is measured with
// `bash bench/run.sh`; BENCH_results.json is frozen history from before
// that benchmark existed.
//
// # Scenario service
//
// internal/registry names every graph family (all generators, including
// Barabási–Albert and random caterpillar trees, and the Section 4 kmw /
// kmw-matching lower-bound constructions) and every algorithm, so
// workloads are selected by data instead of by Go code; cmd/localsim,
// campaigns and avgserve resolve their runners through it.
// internal/scenario turns a JSON spec — graph + params, algorithm, trials,
// seed, optional sweep — into measured reports, with a canonical content
// hash that ignores field ordering and labels. Each sweep row measures under its own derived seed
// and records the realized graph size (the hash preamble is scenario/v3;
// older disk cache entries simply miss and age out). cmd/avgserve serves
// that layer over HTTP behind a bounded worker pool, caching each
// outcome's exact byte rendering in internal/resultstore under (hash,
// seed): identical submissions are answered from the cache
// bit-identically, at any worker count. A row is measured one way
// everywhere: scenario.Run, scenario.RunChunk, campaigns, the fleet's
// local fallback and cmd/localsim all go through one row function in
// internal/scenario, so localsim prints row 0 of /v1/run for its spec. One level below the result cache,
// internal/graphstore supplies every layer's graphs as content-addressed
// artifacts — an in-memory LRU over immutable graphs plus an optional
// checksummed CSR disk tier (-graph-cache-dir) that reruns a sweep with
// zero generator invocations and quarantines anything corrupt before a
// deterministic rebuild. GET /v1/metrics exposes the cache and run
// counters that make the dedupe observable.
//
// # Fleet
//
// internal/fleet lifts the same determinism one level up, from goroutines
// to processes: core.MeasureRange executes an absolute trial range of a
// measurement, scenario.RunChunk runs such a range of one sweep row on
// any machine, and scenario.MergeChunks reassembles any partition of a
// scenario's (row, trial) space into the exact bytes scenario.Run
// produces — scenario.Run measures each row as one chunk and merges it
// through the same per-row merge, so the equivalence holds by
// construction. Every chunk read from a worker or the chunk cache passes
// scenario.ChunkChecker.Accept (identity, trial count, per-trial array
// sizes, and metadata that agrees with the row's other chunks) before it
// may reach the merge. The fleet Coordinator shards specs into chunks and
// leases them to cmd/avgworker processes over a pull-based HTTP protocol
// with heartbeats, retry-on-worker-loss, work stealing for stragglers, and
// chunk-level write-through caching (scenario.ChunkKey in the shared
// result store), so a crash re-run only re-executes lost chunks.
// avgserve's -fleet mode dispatches /v1/run and /v1/campaigns through it whenever workers are attached and falls back to local
// execution otherwise; clients cannot tell the difference, byte for byte.
//
// # Campaigns and asymptotic fits
//
// The analysis layer turns sweeps into verdicts on the paper's bounds.
// internal/fit least-squares fits a measured (size, value) table against
// the candidate growth classes Θ(1), Θ(log* n), Θ(log log n),
// Θ(log n / log log n), Θ(log n) and Θ(n^α) as value ≈ a + b·f(n). The
// classes nest (every growth model contains the constant fit at slope
// zero), so selection is two-staged: an F-test against the constant model
// decides whether the data grows at all, then the significant growth
// models compete on degree-of-freedom-adjusted residuals — the free
// exponent of Θ(n^α) costs a parameter — with statistical ties resolved
// toward the slowest-growing class. A confidence gate (minimum rows,
// minimum size spread, residual cap, separation margin) refuses a verdict
// the data cannot support. internal/campaign executes a declarative list
// of named scenarios, each optionally carrying a hypothesis: an expected
// upper-bound class for one measure, and/or a per-row ratio comparison
// against another scenario (rand-vs-det deltas; with compare_measure, a
// same-run node-vs-edge gap, which dedupes to a single execution).
// Verdicts are CONFIRMED / REJECTED / INCONCLUSIVE; reports marshal
// byte-identically at every parallelism level. cmd/avgcampaign runs a
// campaign file locally (or against a server via -server) and
// campaigns/paper.json ships the paper's E1/E3-vs-E4/E9-style claims;
// POST /v1/campaigns runs campaign.Run over avgserve's job table, so up to
// 32 scenarios (hypotheses optional) dedupe like any /v1/run, and streams
// completions in campaign order followed by the verdict report. Beside the fits, internal/fit keeps a catalogue
// of frozen models a + b·f(n) (optionally Δ-capped, a + b·min(log₂ Δ, f(n)))
// per (algorithm, family, measure), with constants fitted once.
// internal/campaign evaluates them against every sweep from outcome rows
// alone, feeding the within_twin hypothesis form (constants, where expect
// judges growth class), the twin block of campaign reports and twin.eval
// flight-recorder spans.
//
// # Load testing
//
// The benchmark module's open-loop generator drives a running avgserve:
// bash bench/run.sh --workload serve-miss (Poisson arrivals of fresh
// seeds) or --workload serve-hit (primed keys). Its slo_ok_ratio is the
// serving SLO — the share of requests that succeed, pass their checks and
// answer within 250 ms (serve-miss) or 20 ms (serve-hit); bench/README.md
// describes the workloads.
package avgloc
