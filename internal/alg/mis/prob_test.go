package mis

import (
	"math"
	"testing"
)

// TestProbExpRoundTrip: every marking probability Ghaffari can reach —
// 1/2 halved until it underflows to 0, through the subnormals — rides in
// a message's Aux exponent and decodes to the same float64 bits, so the
// receivers' crowding sums are unchanged.
func TestProbExpRoundTrip(t *testing.T) {
	steps := 0
	for p := 0.5; ; p /= 2 {
		k := probExp(p)
		if got := expProb(k); math.Float64bits(got) != math.Float64bits(p) {
			t.Fatalf("p=%g: exponent %d decodes to %g", p, k, got)
		}
		if p == 0 {
			break
		}
		if want := uint32(steps + 1); k != want {
			t.Fatalf("p=%g: exponent %d, want %d", p, k, want)
		}
		steps++
	}
	if steps != 1074 {
		t.Fatalf("reached 0 after %d halvings, want 1074", steps)
	}
}
