// Package twin is documented in twin.go; this file carries the longer
// architectural notes.
//
// # Why a twin, next to fit
//
// internal/fit answers "which growth class best describes this sweep?" by
// refitting scale constants on every evaluation — a drifting measurement
// is absorbed into a fresh (a, b) and only a changed *class* is visible.
// The twin holds constants fixed: each catalogue model's A and B were
// fitted once, against campaigns/paper.json at its quick scale, and a
// drifting measurement shows up as a drifting measured/predicted ratio.
// Together they bracket a sweep from both sides — fit says the shape is
// right, the twin says the scale still is.
//
// # Ratio semantics
//
// Every evaluated row carries ratio = measured/predicted; the sweep
// summary carries max |log₂ ratio| (0 = every row on the curve, 1 = some
// row off by 2×) with the worst row flagged. The campaign layer's
// within_twin hypothesis bounds the ratio across the sweep and inherits
// fit's refusal discipline: fewer than fit.DefaultMinRows in-range rows,
// or a size spread under fit.DefaultMinSpread, is INCONCLUSIVE — a sweep
// that could not have left the bound must not confirm it.
//
// # Pure observability
//
// Nothing here changes measured bytes. campaign.Evaluate computes twin
// blocks purely from outcome rows, localsim -twin prints predictions beside
// a measured run, and the avg_twin_* metrics and twin.eval trace spans
// record that the evaluation happened — with the twin on or off, every
// measured field marshals byte-identically.
package twin
