package fit

import (
	"math"
	"strings"
	"testing"
)

// wideSizes spans 2^8..2^64: wide enough that every candidate class pair
// is separable (log n and log n/log log n only diverge once log log n
// moves). Fit is pure arithmetic, so sizes beyond simulable graphs are
// fine here; the narrow-range behavior is tested separately.
func wideSizes() []float64 {
	var xs []float64
	for e := 8; e <= 64; e += 8 {
		xs = append(xs, math.Pow(2, float64(e)))
	}
	return xs
}

// sweepSizes is a realistic measured sweep: 256..16384.
func sweepSizes() []float64 {
	return []float64{256, 1024, 4096, 16384}
}

// synth draws values a + coeff·f(n) with a small deterministic alternating
// perturbation, the stand-in for measurement noise.
func synth(c Class, a, coeff, alpha, noise float64, xs []float64) []float64 {
	ys := make([]float64, len(xs))
	for i, x := range xs {
		sign := 1.0
		if i%2 == 1 {
			sign = -1
		}
		ys[i] = (a + coeff*eval(c, alpha, x)) * (1 + sign*noise)
	}
	return ys
}

// TestClassifiesEachGrowthClass is the core acceptance table: synthetic
// data drawn from each candidate class — including a constant offset, the
// shape real round counts have — must be classified as that class,
// conclusively, at the default gate.
func TestClassifiesEachGrowthClass(t *testing.T) {
	xs := wideSizes()
	cases := []struct {
		class Class
		a     float64
		coeff float64
		alpha float64
	}{
		{Const, 5.0, 0, 0},
		{LogStar, 1, 1.5, 0},
		{LogLog, 0.5, 2.0, 0},
		{LogOverLogLog, 1, 1.0, 0},
		{Log, 2, 2.5, 0},
		{Poly, 0, 0.5, 0.5},
	}
	for _, c := range cases {
		t.Run(string(c.class), func(t *testing.T) {
			ys := synth(c.class, c.a, c.coeff, c.alpha, 0.005, xs)
			res, err := Fit(xs, ys, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Conclusive {
				t.Fatalf("inconclusive (%s); models: %+v", res.Reason, res.Models)
			}
			if res.Best != c.class {
				t.Fatalf("classified as %s, want %s; margin %.2f, models %+v",
					res.Best, c.class, res.Margin, res.Models)
			}
			if res.Margin < DefaultMinMargin {
				t.Fatalf("margin %.2f below gate %v", res.Margin, DefaultMinMargin)
			}
		})
	}
}

// TestNarrowRangeClassification: on a realistic 256..16384 sweep the
// coarse distinctions must still come out — flat data is Const, clearly
// logarithmic data is at most Log, clear power growth is Poly.
func TestNarrowRangeClassification(t *testing.T) {
	xs := sweepSizes()

	res, err := Fit(xs, synth(Const, 4, 0, 0, 0.01, xs), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Conclusive || res.Best != Const {
		t.Fatalf("flat sweep: best %s conclusive %v (%s)", res.Best, res.Conclusive, res.Reason)
	}

	res, err = Fit(xs, synth(Log, 3, 2, 0, 0.01, xs), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Conclusive || Rank(res.Best) > Rank(Log) || res.Best == Const {
		t.Fatalf("log sweep: best %s conclusive %v (%s)", res.Best, res.Conclusive, res.Reason)
	}

	res, err = Fit(xs, synth(Poly, 0, 1, 0.5, 0.01, xs), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Conclusive || res.Best != Poly {
		t.Fatalf("sqrt sweep: best %s conclusive %v (%s)", res.Best, res.Conclusive, res.Reason)
	}
}

// TestPolyRecoversAlpha: the grid search must recover the true exponent to
// grid precision.
func TestPolyRecoversAlpha(t *testing.T) {
	xs := sweepSizes()
	for _, alpha := range []float64{0.33, 0.5, 1.0} {
		ys := synth(Poly, 0, 2.0, alpha, 0, xs)
		res, err := Fit(xs, ys, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var poly *Model
		for i := range res.Models {
			if res.Models[i].Class == Poly {
				poly = &res.Models[i]
			}
		}
		if poly == nil {
			t.Fatal("no poly model")
		}
		if math.Abs(poly.Alpha-alpha) > 0.01 {
			t.Fatalf("alpha %v fitted as %v", alpha, poly.Alpha)
		}
	}
}

// TestOccamPrefersSlowestTiedClass: on a sweep where log* n is constant,
// constant data must classify as Const — the growth models all fit it with
// slope zero, and the F-test must not let any of them claim the verdict.
func TestOccamPrefersSlowestTiedClass(t *testing.T) {
	xs := []float64{256, 1024, 4096, 16384} // log* = 4 on the whole range
	ys := []float64{5, 5, 5, 5}
	res, err := Fit(xs, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != Const {
		t.Fatalf("constant data classified as %s", res.Best)
	}
	if !res.Conclusive {
		t.Fatalf("inconclusive: %s", res.Reason)
	}
}

// TestNoCandidateFitsIsInconclusive: an alternating square wave has no
// monotone growth shape at all; the residual cap must refuse a verdict
// rather than pick a winner.
func TestNoCandidateFitsIsInconclusive(t *testing.T) {
	xs := wideSizes()
	ys := make([]float64, len(xs))
	for i := range ys {
		ys[i] = 1
		if i%2 == 1 {
			ys[i] = 100
		}
	}
	res, err := Fit(xs, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Conclusive {
		t.Fatalf("square wave classified conclusively as %s (margin %.2f)", res.Best, res.Margin)
	}
	if !strings.Contains(res.Reason, "no candidate fits") {
		t.Fatalf("unexpected reason: %s", res.Reason)
	}
}

// TestMarginTooThinIsInconclusive: growth that is real but right at the
// edge of significance must be inconclusive on margin grounds — the fit
// can neither call it flat nor name a growth class.
func TestMarginTooThinIsInconclusive(t *testing.T) {
	xs := sweepSizes()
	// Logarithmic growth buried in noise comparable to the growth itself:
	// the F-statistic lands between FCrit/MinMargin and FCrit, where
	// neither the Const verdict nor a growth verdict has the margin.
	ys := make([]float64, len(xs))
	for i, x := range xs {
		bump := []float64{0.5, -0.5, 0.5, -0.5}[i]
		ys[i] = 10 + 0.5*math.Log2(x) + bump
	}
	res, err := Fit(xs, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Conclusive {
		t.Fatalf("borderline growth classified conclusively as %s (margin %.2f, models %+v)",
			res.Best, res.Margin, res.Models)
	}
	if !strings.Contains(res.Reason, "margin") {
		t.Fatalf("unexpected reason: %s (margin %.2f, models %+v)", res.Reason, res.Margin, res.Models)
	}
}

// TestGateRefusesThinEvidence: too few rows or too narrow a size spread
// must be inconclusive regardless of how clean the data is.
func TestGateRefusesThinEvidence(t *testing.T) {
	fewX := []float64{256, 1024, 4096}
	res, err := Fit(fewX, []float64{8, 10, 12}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Conclusive {
		t.Fatal("3 rows accepted as conclusive")
	}

	narrowX := []float64{1000, 1100, 1200, 1300, 1400}
	res, err = Fit(narrowX, []float64{10, 10.1, 10.2, 10.3, 10.4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Conclusive {
		t.Fatal("1.4x size spread accepted as conclusive")
	}
}

// TestDuplicateSizesAveraged: repeated sizes merge into their mean and
// count once toward the row gate.
func TestDuplicateSizesAveraged(t *testing.T) {
	xs := []float64{256, 256, 1024, 4096, 16384, 65536}
	ys := []float64{4, 6, 5, 5, 5, 5}
	res, err := Fit(xs, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 5 {
		t.Fatalf("rows %d, want 5 after merging duplicates", res.Rows)
	}
	if res.Best != Const {
		t.Fatalf("classified as %s", res.Best)
	}
}

// TestDecreasingDataIsConst: no candidate models shrinking measures; the
// slope clamp must degrade them to the constant fit instead of producing
// negative-growth nonsense.
func TestDecreasingDataIsConst(t *testing.T) {
	xs := sweepSizes()
	ys := []float64{12, 11.5, 11, 10.5}
	res, err := Fit(xs, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != Const {
		t.Fatalf("decreasing data classified as %s", res.Best)
	}
}

// TestFitRejectsBadInput covers the error paths.
func TestFitRejectsBadInput(t *testing.T) {
	if _, err := Fit([]float64{1, 2}, []float64{1}, Options{}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Fit(nil, nil, Options{}); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := Fit([]float64{-1, 2, 3, 4}, []float64{1, 2, 3, 4}, Options{}); err == nil {
		t.Fatal("negative size accepted")
	}
	if _, err := Fit([]float64{1, 2, 3, 4}, []float64{1, math.NaN(), 3, 4}, Options{}); err == nil {
		t.Fatal("NaN value accepted")
	}
}

func TestRankOrdering(t *testing.T) {
	order := Classes()
	for i := 1; i < len(order); i++ {
		if Rank(order[i-1]) >= Rank(order[i]) {
			t.Fatalf("rank order broken at %s", order[i])
		}
	}
	if Valid("nope") {
		t.Fatal("unknown class valid")
	}
	if Rank("nope") <= Rank(Poly) {
		t.Fatal("unknown class ranks below poly")
	}
}

func TestLogStarN(t *testing.T) {
	cases := map[float64]float64{2: 1, 4: 2, 16: 3, 256: 4, 65536: 4, math.Pow(2, 17): 5}
	for n, want := range cases {
		if got := LogStarN(n); got != want {
			t.Fatalf("log* %v = %v, want %v", n, got, want)
		}
	}
}
