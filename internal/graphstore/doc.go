// Package graphstore is the content-addressed graph artifact layer: it
// turns a graph from a side effect of running a scenario into a
// reproducible, addressable artifact shared across sweep rows, batch specs,
// campaigns and fleet workers.
//
// # Keys
//
// A graph is addressed by sha256 over a canonical rendering of its identity:
//
//	avggraph/v1
//	family=<name>
//	param.<k>=<v>        (normalized, sorted; registry.Values.AppendCanonical)
//	seed=<s1>/<s2>       (random families only)
//
// Parameters render through the same stable-ordering machinery as scenario
// content hashes, so JSON field order never splits the cache. Deterministic
// families (Random == false ignore their rng by contract) omit the seed
// line: every row, spec and master seed that asks for the same cycle shares
// one artifact.
//
// # Tiers
//
// Resolution order is memory LRU → in-flight build (singleflight) → disk →
// generator. Both tiers are internal/cache's, the same code the result
// cache runs on. The memory tier holds built *graph.Graph values under a
// byte budget (New's maxBytes; evicted cold-end-first, the newest entry is
// never evicted). The disk tier (-graph-cache-dir) holds versioned flat
// CSR images as <key>.csr, sealed with an "avggraph1 <sha256>" header,
// written atomically (temp file + rename) and bounded at 16× the memory
// budget in file bytes, oldest files evicted first and the newest always
// kept. A warm disk tier loads graphs without re-running generators — the
// Builds counter stays flat across a restart. Disk writes are best-effort:
// a failed write costs a later rebuild, never a failed Get.
//
// # Integrity
//
// An artifact that fails checksum verification or CSR validation — a torn
// write, a bit flip, version skew — is moved to the quarantine/
// subdirectory and the graph is rebuilt from its generator; the decoded or
// rebuilt graph is always exactly the generator's output (same CSR arrays,
// ports and edge ids), so downstream measurement bytes are identical cold,
// warm, or corrupted-then-quarantined. chaos.Injector.TamperDiskWrite plugs
// into Options.TamperDiskWrite to prove this under the soak.
package graphstore
