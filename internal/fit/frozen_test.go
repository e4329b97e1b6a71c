package fit

import (
	"math"
	"testing"
)

// TestFrozenPredict pins each closed form a frozen model can take,
// including the clamps at small n and the Δ-capped piecewise-min form of
// the sinkless-orientation headline.
func TestFrozenPredict(t *testing.T) {
	cases := []struct {
		name  string
		m     Frozen
		n     float64
		delta float64
		want  float64
	}{
		{"const ignores n and delta", Frozen{Model: Model{Class: Const, Intercept: 3.5}}, 4096, 64, 3.5},
		{"logstar n=2", Frozen{Model: Model{Class: LogStar, Intercept: 1, Coeff: 2}}, 2, 2, 1 + 2*1},
		{"logstar n=16", Frozen{Model: Model{Class: LogStar, Coeff: 2}}, 16, 2, 2 * 3},
		{"logstar n=256", Frozen{Model: Model{Class: LogStar, Intercept: 1, Coeff: 2}}, 256, 2, 1 + 2*4},
		{"logstar n=65536", Frozen{Model: Model{Class: LogStar, Coeff: 4.65}}, 65536, 2, 4.65 * 4},
		{"loglog n=65536", Frozen{Model: Model{Class: LogLog, Intercept: 1, Coeff: 3}}, 65536, 2, 1 + 3*4},
		{"loglog clamps at small n", Frozen{Model: Model{Class: LogLog, Coeff: 3}}, 3, 2, 3 * 1},
		{"log n=1024", Frozen{Model: Model{Class: Log, Intercept: 2, Coeff: 0.5}}, 1024, 2, 2 + 0.5*10},
		{"log clamps at n=2", Frozen{Model: Model{Class: Log, Coeff: 5}}, 2, 2, 5 * 1},
		{"min: delta term binds", Frozen{Model: Model{Class: LogLog, Coeff: 2}, DeltaCap: true}, 1 << 16, 3, 2 * math.Log2(3)},
		{"min: loglog term binds", Frozen{Model: Model{Class: LogLog, Intercept: 1, Coeff: 2}, DeltaCap: true}, 256, 1024, 1 + 2*3},
		{"min: tie at delta=16 n=65536", Frozen{Model: Model{Class: LogLog, Coeff: 1}, DeltaCap: true}, 65536, 16, 4},
		{"min: delta below 2 clamps to the floor", Frozen{Model: Model{Class: LogLog, Coeff: 2}, DeltaCap: true}, 65536, 1, 2 * 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := tc.m.Predict(tc.n, tc.delta)
			if !ok || math.Abs(got-tc.want) > 1e-9 {
				t.Fatalf("Predict(%g, %g) = %g, %v; want %g", tc.n, tc.delta, got, ok, tc.want)
			}
		})
	}
}

// TestFrozenPredictRange checks that sizes outside the validity range and
// non-positive predictions yield no prediction.
func TestFrozenPredictRange(t *testing.T) {
	m := Frozen{Model: Model{Class: Const, Intercept: 2}, NMin: 32, NMax: 1024}
	for _, n := range []float64{16, 2048} {
		if _, ok := m.Predict(n, 2); ok {
			t.Errorf("n=%g outside [32, 1024] got a prediction", n)
		}
	}
	if got, ok := m.Predict(32, 2); !ok || got != 2 {
		t.Errorf("n=32 at the range floor: %g, %v", got, ok)
	}
	zero := Frozen{Model: Model{Class: LogStar}}
	if _, ok := zero.Predict(256, 2); ok {
		t.Error("a zero prediction admits no ratio")
	}
}

func TestFrozenCurve(t *testing.T) {
	for _, tc := range []struct {
		m    Frozen
		want string
	}{
		{Frozen{Model: Model{Class: Const}}, "const"},
		{Frozen{Model: Model{Class: LogStar}}, "logstar"},
		{Frozen{Model: Model{Class: LogLog}, DeltaCap: true}, "min_logd_loglogn"},
	} {
		if got := tc.m.Curve(); got != tc.want {
			t.Errorf("Curve() = %q, want %q", got, tc.want)
		}
	}
}

// TestCatalogue checks every shipped model: non-negative constants that
// are not both zero, a valid size range, a positive prediction across the
// range, and a Lookup that round-trips.
func TestCatalogue(t *testing.T) {
	if len(catalogue) < 5 {
		t.Fatalf("catalogue has %d models, want >= 5", len(catalogue))
	}
	for _, m := range catalogue {
		name := m.Algorithm + "/" + m.Family + " " + m.Measure
		if m.Intercept < 0 || m.Coeff < 0 || (m.Intercept == 0 && m.Coeff == 0) {
			t.Errorf("%s: constants a=%g b=%g must be non-negative and not both zero", name, m.Intercept, m.Coeff)
		}
		if m.NMin <= 0 || m.NMax < m.NMin {
			t.Errorf("%s: invalid validity range [%g, %g]", name, m.NMin, m.NMax)
		}
		for _, n := range []float64{m.NMin, math.Sqrt(m.NMin * m.NMax), m.NMax} {
			for _, delta := range []float64{2, 3, 64} {
				if p, ok := m.Predict(n, delta); !ok || p <= 0 {
					t.Errorf("%s: no positive prediction at n=%g delta=%g", name, n, delta)
				}
			}
		}
		got, ok := Lookup(m.Algorithm, m.Family, m.Measure)
		if !ok || got.Curve() != m.Curve() {
			t.Errorf("Lookup(%s) does not round-trip", name)
		}
	}
	if _, ok := Lookup("mis/luby", "tree", "node_avg"); ok {
		t.Error("Lookup invented a model")
	}
}
