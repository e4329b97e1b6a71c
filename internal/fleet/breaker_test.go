package fleet

import (
	"testing"
	"time"
)

// TestBreakerLifecycle walks the full state machine: a failure streak
// trips it, the cooldown half-opens it, exactly one probe gets through,
// and the probe's outcome decides between closing and re-opening.
func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker()
	b.now = func() time.Time { return now }
	cooldown := DefaultBreakerCooldown + time.Second

	if b.State() != "closed" || !b.Allow() {
		t.Fatalf("new breaker: state %q, want closed+allowing", b.State())
	}
	// A streak below threshold keeps it closed; a success clears the streak.
	for i := 1; i < DefaultBreakerThreshold; i++ {
		b.Failure()
	}
	b.Success()
	for i := 1; i < DefaultBreakerThreshold; i++ {
		b.Failure()
	}
	if b.State() != "closed" {
		t.Fatalf("state %q after interrupted streak, want closed", b.State())
	}
	b.Failure() // threshold-th consecutive: trips
	if b.State() != "open" || b.Trips() != 1 {
		t.Fatalf("state %q trips %d after threshold streak, want open/1", b.State(), b.Trips())
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a dispatch inside the cooldown")
	}
	// Cooldown elapses: half-open, one probe only.
	now = now.Add(cooldown)
	if b.State() != "half-open" {
		t.Fatalf("state %q after cooldown, want half-open", b.State())
	}
	if !b.Allow() {
		t.Fatal("half-open breaker refused the probe")
	}
	if b.Allow() {
		t.Fatal("half-open breaker allowed a second concurrent probe")
	}
	// Probe fails: re-open (a second trip), full cooldown again.
	b.Failure()
	if b.State() != "open" || b.Trips() != 2 || b.Allow() {
		t.Fatalf("state %q trips %d after failed probe, want open/2 refusing", b.State(), b.Trips())
	}
	// Next cooldown's probe succeeds: closed, requests flow.
	now = now.Add(cooldown)
	if !b.Allow() {
		t.Fatal("second probe refused")
	}
	b.Success()
	if b.State() != "closed" || !b.Allow() || !b.Allow() {
		t.Fatalf("state %q after successful probe, want closed+allowing", b.State())
	}
}

// TestBackoffRampAndJitter: delays ramp base·2ⁿ with equal jitter (each in
// [cap/2, cap]), saturate at max, Reset rewinds the ramp, and equal seeds
// replay the exact schedule while distinct seeds desynchronize.
func TestBackoffRampAndJitter(t *testing.T) {
	base, max := 100*time.Millisecond, 800*time.Millisecond
	b := NewBackoff(base, max, 42)
	caps := []time.Duration{100, 200, 400, 800, 800, 800}
	var sched []time.Duration
	for i, c := range caps {
		c *= time.Millisecond
		d := b.Next()
		if d < c/2 || d > c {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", i, d, c/2, c)
		}
		sched = append(sched, d)
	}
	b.Reset()
	if d := b.Next(); d < base/2 || d > base {
		t.Fatalf("post-Reset delay %v outside [%v, %v]", d, base/2, base)
	}

	replay := NewBackoff(base, max, 42)
	for i, want := range sched {
		if got := replay.Next(); got != want {
			t.Fatalf("seed 42 replay diverged at attempt %d: %v != %v", i, got, want)
		}
	}
	other := NewBackoff(base, max, 43)
	same := true
	for _, want := range sched {
		if other.Next() != want {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical jitter schedules")
	}
}
