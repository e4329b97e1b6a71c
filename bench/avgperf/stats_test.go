package main

import (
	"math/rand/v2"
	"sort"
	"testing"
	"time"
)

// TestQuantileMatchesBruteForce checks the nearest-rank rule against a
// direct reading of its definition: the q-quantile is the smallest sample
// with at least ⌈q·k⌉ samples at or below it.
func TestQuantileMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for k := 1; k <= 60; k++ {
		xs := make([]float64, k)
		for i := range xs {
			xs[i] = float64(rng.IntN(20)) // ties included
		}
		s := sortedCopy(xs)
		for _, q := range []float64{0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			var want float64
			found := false
			for _, c := range s {
				atOrBelow := 0
				for _, x := range xs {
					if x <= c {
						atOrBelow++
					}
				}
				if float64(atOrBelow) >= q*float64(k) {
					want, found = c, true
					break
				}
			}
			if !found {
				t.Fatalf("k=%d q=%v: no brute-force quantile", k, q)
			}
			if got := quantile(s, q); got != want {
				t.Errorf("k=%d q=%v: quantile %v, brute force %v", k, q, got, want)
			}
		}
	}
	if !sort.Float64sAreSorted(sortedCopy([]float64{3, 1, 2})) {
		t.Error("sortedCopy does not sort")
	}
}

// TestP99Eligibility: lat_p99_ms is omitted, not reported, while fewer than
// ten samples lie beyond it.
func TestP99Eligibility(t *testing.T) {
	for _, c := range []struct {
		k    int
		want bool
	}{{10, false}, {999, false}, {1000, true}, {5000, true}} {
		xs := make([]float64, c.k)
		for i := range xs {
			xs[i] = float64(i)
		}
		m := make(map[string]Stat)
		latencyStats(xs, m)
		_, got := m["lat_p99_ms"]
		if got != c.want || tailEligible(c.k, 0.99) != c.want {
			t.Errorf("k=%d: lat_p99_ms reported %v, want %v", c.k, got, c.want)
		}
		if got {
			beyond := 0
			for _, x := range xs {
				if x > m["lat_p99_ms"].Value {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("k=%d: only %d samples beyond the reported p99", c.k, beyond)
			}
		}
		if _, ok := m["lat_p50_ms"]; !ok {
			t.Errorf("k=%d: lat_p50_ms missing", c.k)
		}
	}
}

// TestScheduleIsPureAndOnRate: the arrival schedule is a function of
// (seed, rate, duration) alone, and its mean rate is within 5% of the
// target.
func TestScheduleIsPureAndOnRate(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		for _, rate := range []float64{40, 300} {
			d := 60 * time.Second
			a, b := poissonSchedule(seed, rate, d), poissonSchedule(seed, rate, d)
			if len(a) != len(b) {
				t.Fatalf("seed %d rate %v: %d then %d arrivals", seed, rate, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("seed %d rate %v: arrival %d at %v then %v", seed, rate, i, a[i], b[i])
				}
				if i > 0 && a[i] < a[i-1] || a[i] >= d {
					t.Fatalf("seed %d rate %v: arrival %d at %v out of order or past %v", seed, rate, i, a[i], d)
				}
			}
			if got := float64(len(a)) / d.Seconds(); got < 0.95*rate || got > 1.05*rate {
				t.Errorf("seed %d: mean rate %.1f/s, target %v/s", seed, got, rate)
			}
		}
	}
	if x, y := poissonSchedule(1, 40, 10*time.Second), poissonSchedule(2, 40, 10*time.Second); len(x) > 0 && len(y) > 0 && x[0] == y[0] {
		t.Error("seeds 1 and 2 share a schedule")
	}
}

// TestLagRejectsRun: an open-loop phase whose generator ran more than 10 ms
// late at p99 fails its run.
func TestLagRejectsRun(t *testing.T) {
	phase := func(lag time.Duration) *result {
		res := newResult(config{workload: "serve-miss"})
		replies := make([]reply, 200)
		for i := range replies {
			replies[i] = reply{Status: 200, Cache: "miss", Latency: 5 * time.Millisecond}
			if i%20 == 0 {
				replies[i].Lag = lag
			}
		}
		judgePhase(res, replies, "miss", 250*time.Millisecond, nil, []float64{1})
		res.finish()
		return res
	}
	if res := phase(time.Millisecond); !res.Correct {
		t.Errorf("1 ms lag rejected: %v", res.FailedChecks)
	}
	if res := phase(15 * time.Millisecond); res.Correct {
		t.Error("15 ms lag p99 accepted")
	}
}

// TestSelfTimes: a span's self time is its duration minus the union of its
// children's intervals, clipped to it; spans of other runs never count.
func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Run: "a", ID: 1, Name: "pass", Start: 0, End: 100},
		{Run: "a", ID: 2, Parent: 1, Name: "x", Start: 10, End: 30},
		{Run: "a", ID: 3, Parent: 1, Name: "y", Start: 20, End: 50}, // overlaps x
		{Run: "a", ID: 4, Parent: 3, Name: "z", Start: 25, End: 45},
		{Run: "a", ID: 5, Parent: 1, Name: "w", Start: 60, End: 70},
		{Run: "a", ID: 6, Parent: 1, Name: "v", Start: 90, End: 120}, // runs past its parent
		{Run: "b", ID: 7, Parent: 1, Name: "other", Start: 0, End: 100},
	}
	want := []int64{100 - 40 - 10 - 10, 20, 30 - 20, 20, 10, 30, 100}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

// TestRecorderNests: begin nests under the innermost open span.
func TestRecorderNests(t *testing.T) {
	r := newRecorder("run")
	endA := r.begin("a")
	endB := r.begin("b")
	endB()
	endC := r.begin("c")
	endC()
	endA()
	if r.spans[1].Parent != r.spans[0].ID || r.spans[2].Parent != r.spans[0].ID || r.spans[0].Parent != 0 {
		t.Errorf("parents %d %d %d", r.spans[0].Parent, r.spans[1].Parent, r.spans[2].Parent)
	}
	for _, s := range r.spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
}
