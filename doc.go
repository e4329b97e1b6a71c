// Package avgloc reproduces "Node and Edge Averaged Complexities of Local
// Graph Problems" (Balliu, Ghaffari, Kuhn, Olivetti; PODC 2022,
// arXiv:2208.08213) as a Go library: a synchronous LOCAL/CONGEST
// simulator, the paper's averaged-complexity measures, its algorithms
// (MIS, ruling sets, maximal matching, sinkless orientation) and its
// KMW-style lower-bound constructions, together with the E1–E14
// experiment harness described in DESIGN.md and EXPERIMENTS.md.
//
// Entry points:
//
//	internal/core        — problems, runners, measurement
//	internal/registry    — named graph families and algorithms (data-driven workload selection)
//	internal/scenario    — declarative JSON scenario specs with canonical content hashes
//	internal/graphstore  — content-addressed graph artifacts: memory LRU + checksummed CSR disk tier
//	internal/resultstore — LRU result cache (optional disk persistence) keyed by (hash, seed)
//	internal/fit         — growth-class classification of measured sweeps
//	internal/twin        — analytical twin: calibrated closed-form curves evaluated beside sweeps
//	internal/campaign    — hypothesis campaigns: scenarios + claims → verdicts
//	internal/fleet       — distributed chunk execution with bit-identical merge
//	internal/load        — open-loop load generation: seeded schedules, SLO verdicts, NDJSON artifacts
//	internal/harness     — the experiments; also run via cmd/avgbench
//	cmd/avgserve         — HTTP measurement service over the scenario layer (-fleet: coordinator)
//	cmd/avgworker        — stateless fleet worker process
//	cmd/avgcampaign      — run a campaign file, render the verdict table
//	cmd/avgload          — drive avgserve with a load plan, judge its latency SLOs
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
// all per-run buffers in graph-sized arenas across repeated trials.
//
// # Measurement distributions
//
// Every core.Report carries a Dist block (measure.Dist): exact nearest-rank
// p50/p90/p99/max quantiles and a fixed-bucket log₂ histogram of the
// per-node and per-edge expected completion times, plus the across-trial
// sample variance of the run-level averages. This is the distribution the
// paper's averaged measures summarize — most nodes finish in O(1) rounds
// while a vanishing fraction pays the worst case — made inspectable: the
// E1/E3/E10 harness tables print p50/p99 columns, and `localsim -dist`
// renders the full block. Quantiles are computed by sorting into a scratch
// buffer shared across the aggregator's quantile passes, never by
// sketching, so they are exact.
//
// # Deterministic parallelism
//
// core.Measure fans independent trials over a worker pool
// (MeasureOptions.Parallelism); scenario.Run fans sweep rows out under one
// budget (Options.Parallelism, split between concurrent rows and per-row
// trial workers); the harness does the same for table rows
// (harness.Options.Parallelism). Every random stream is derived from the
// master seed and the (row, trial) indices alone: identifier permutations
// and graph generation use counter-keyed PCG streams, while algorithm
// seeds and per-row measurement seeds go through SplitMix64-finalized
// counter derivations (internal/seedmix; a plain additive stride would let
// related master seeds share shifted streams). Outcomes merge in row/trial
// order, so reports, tables and scenario outcomes are bit-identical at
// every parallelism level. Run
// `avgbench -json BENCH_results.json` to regenerate the performance
// trajectory file.
//
// # Scenario service
//
// internal/registry names every graph family (all generators, including
// Barabási–Albert and random caterpillar trees, and the Section 4 kmw /
// kmw-matching lower-bound constructions) and every algorithm, so
// workloads are selected by data instead of by Go code; cmd/localsim and
// the harness resolve their runners through it. internal/scenario turns a
// JSON spec — graph + params, algorithm, trials, seed, optional sweep —
// into measured reports, with a canonical content hash that ignores field
// ordering and labels. Each sweep row measures under its own derived seed
// and records the realized graph size (the hash preamble is scenario/v3;
// older disk cache entries simply miss and age out). cmd/avgserve serves
// that layer over HTTP behind a bounded worker pool, caching each
// outcome's exact byte rendering in internal/resultstore under (hash,
// seed): identical submissions are answered from the cache
// bit-identically, at any worker count. One level below the result cache,
// internal/graphstore supplies every layer's graphs as content-addressed
// artifacts — an in-memory LRU over immutable graphs plus an optional
// checksummed CSR disk tier (-graph-cache-dir) that reruns a sweep with
// zero generator invocations and quarantines anything corrupt before a
// deterministic rebuild. POST /v1/batch accepts up to 32
// specs in one request, dedupes them against the store, in-flight jobs
// and each other, and streams one NDJSON completion line per spec. GET
// /v1/metrics exposes the cache and run counters that make the dedupe
// observable.
//
// # Fleet
//
// internal/fleet lifts the same determinism one level up, from goroutines
// to processes: core.MeasureRange executes an absolute trial range of a
// measurement, scenario.RunChunk runs such a range of one sweep row on
// any machine, and scenario.MergeChunks reassembles any partition of a
// scenario's (row, trial) space into the exact bytes scenario.Run
// produces — core.Measure is itself implemented as MeasureRange +
// MergeTrials, so the equivalence holds by construction. The fleet
// Coordinator shards specs into chunks and leases them to cmd/avgworker
// processes over a pull-based HTTP protocol with heartbeats,
// retry-on-worker-loss, work stealing for stragglers, and chunk-level
// write-through caching (scenario.ChunkKey in the shared result store),
// so a crash re-run only re-executes lost chunks. avgserve's -fleet mode
// dispatches /v1/run, /v1/batch and /v1/campaigns through it whenever
// workers are attached and falls back to local execution otherwise;
// clients cannot tell the difference, byte for byte.
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
// POST /v1/campaigns streams per-scenario completions in campaign order
// followed by the verdict report, deduped through the same result store
// as every other endpoint. Beside the fits, internal/twin keeps a
// catalogue of calibrated closed-form curves A + B·f(n, Δ) per
// (algorithm, family, measure) and evaluates them against every sweep as
// pure observability — measured bytes are byte-identical with the twin
// on or off — feeding localsim -twin, harness ratio columns, the
// within_twin hypothesis form (constants, where expect judges growth
// class), avgcampaign -twin-out artifacts rendered by avgtrace, twin.eval
// flight-recorder spans and the avg_twin_* metrics.
//
// # Load testing
//
// internal/load and cmd/avgload close the observability loop from the
// outside: a declarative load plan expands — deterministically, from
// seedmix-derived streams — into an open-loop request schedule (Poisson,
// bursty on/off, or diurnal-ramp arrivals; weighted endpoint and spec
// mixes; a target cache-hit ratio via repeated spec seeds) that drives a
// running avgserve while scraping its /v1/metrics on the same clock. The
// run streams one NDJSON artifact interleaving per-request outcomes,
// exact per-window latency quantiles (obs.Windowed), and server samples,
// then judges the plan's SLO blocks ("p99 < X ms in the steady phase",
// "queue_depth p90 < q") into the campaign vocabulary's CONFIRMED /
// REJECTED / INCONCLUSIVE verdicts. avgtrace renders the artifact as a
// per-phase latency waterfall; loadplans/quick.json is the pinned
// example, and CI asserts its verdict against a live server.
package avgloc
