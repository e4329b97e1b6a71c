// Package ids assigns the unique O(log n)-bit identifiers that the LOCAL
// model equips nodes with (Section 2 of the paper). The lower bounds of
// Section 4 assume identifiers assigned uniformly at random; deterministic
// upper bounds work for any assignment.
package ids

import "math/rand/v2"

// Sequential returns the identity assignment 0..n-1.
func Sequential(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// RandomPerm returns a uniformly random bijection of 0..n-1 onto itself,
// i.e. identifiers are a random permutation. This keeps the identifier
// space tight, which Linial-style coloring benefits from, while matching
// the "IDs assigned uniformly at random" assumption of the lower bounds.
func RandomPerm(n int, rng *rand.Rand) []int64 {
	out := Sequential(n)
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// RandomSparse returns n distinct identifiers drawn uniformly from
// [0, n^2), the classic O(log n)-bit sparse identifier space.
func RandomSparse(n int, rng *rand.Rand) []int64 {
	space := int64(n) * int64(n)
	if space < 2 {
		space = 2
	}
	seen := make(map[int64]struct{}, n)
	out := make([]int64, 0, n)
	for len(out) < n {
		id := rng.Int64N(space)
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		out = append(out, id)
	}
	return out
}
