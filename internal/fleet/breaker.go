package fleet

import (
	"sync"
	"time"
)

// Breaker parameters: DefaultBreakerThreshold consecutive failures open
// it for DefaultBreakerCooldown.
const (
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 30 * time.Second
)

// Breaker is a circuit breaker over fleet dispatch. Closed: requests flow.
// After DefaultBreakerThreshold consecutive failures it opens: Allow()
// refuses — callers go straight to local execution — for
// DefaultBreakerCooldown, so a dead fleet costs one failure burst, not a
// probe (queue wait, retry budget, timeout) per request. After the
// cooldown it half-opens: exactly one caller probes the fleet; its success
// closes the breaker, its failure re-opens it.
type Breaker struct {
	mu       sync.Mutex
	failures int
	openedAt time.Time
	state    string // "closed" | "open" | "half-open"
	probing  bool
	trips    int64

	now func() time.Time // test hook
}

// NewBreaker returns a closed breaker.
func NewBreaker() *Breaker {
	return &Breaker{state: "closed", now: time.Now}
}

// Allow reports whether a fleet dispatch may proceed. In the half-open
// state only the first caller gets through (the probe); the rest are
// refused until the probe reports.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case "closed":
		return true
	case "open":
		if b.now().Sub(b.openedAt) < DefaultBreakerCooldown {
			return false
		}
		b.state = "half-open"
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Success reports a fleet dispatch that did not fail with ErrUnavailable;
// it closes the breaker and clears the failure streak.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.probing = false
	b.state = "closed"
}

// Failure reports an ErrUnavailable dispatch. A half-open probe failure
// re-opens immediately; a closed-state streak of DefaultBreakerThreshold
// failures trips the breaker.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	b.probing = false
	if b.state == "half-open" || b.failures >= DefaultBreakerThreshold {
		if b.state != "open" {
			b.trips++
		}
		b.state = "open"
		b.openedAt = b.now()
		b.failures = 0
	}
}

// State returns "closed", "open" or "half-open" (for /v1/metrics).
func (b *Breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == "open" && b.now().Sub(b.openedAt) >= DefaultBreakerCooldown {
		return "half-open" // cooldown elapsed; next Allow() probes
	}
	return b.state
}

// Trips counts closed→open transitions (for /v1/metrics).
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}
