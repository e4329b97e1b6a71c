package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of an ascending sample:
// element ⌈q·k⌉−1 of k, the rule internal/measure uses for completion
// times. An empty sample yields 0.
func quantile(sorted []float64, q float64) float64 {
	k := len(sorted)
	if k == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(k))) - 1
	if i < 0 {
		i = 0
	}
	if i >= k {
		i = k - 1
	}
	return sorted[i]
}

// sortedCopy returns xs sorted ascending without modifying it.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Stat is one reported metric: its value (for a timing, the median or the
// named percentile), the quartiles where they apply, and the sample count.
type Stat struct {
	Value float64 `json:"value"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n"`
}

// medianStat summarizes a sample by its nearest-rank median and quartiles.
func medianStat(xs []float64) Stat {
	s := sortedCopy(xs)
	return Stat{Value: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// tailEligible reports whether the q-quantile of k samples has at least
// ten samples beyond it, the least a reported tail percentile may rest on.
func tailEligible(k int, q float64) bool {
	return float64(k)-math.Ceil(q*float64(k)) >= 10
}

// latencyStats turns per-operation latencies (ms) into lat_p50_ms (with
// quartiles), lat_p90_ms and, only when eligible, lat_p99_ms.
func latencyStats(ms []float64, into map[string]Stat) {
	s := sortedCopy(ms)
	into["lat_p50_ms"] = Stat{Value: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
	into["lat_p90_ms"] = Stat{Value: quantile(s, 0.9), N: len(s)}
	if tailEligible(len(s), 0.99) {
		into["lat_p99_ms"] = Stat{Value: quantile(s, 0.99), N: len(s)}
	}
}
