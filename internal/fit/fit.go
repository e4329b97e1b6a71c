// Package fit classifies measured complexity sweeps against the paper's
// candidate growth classes. The paper's results are asymptotic statements —
// node-averaged O(log* n) ruling sets (Theorem 2/3), an edge-averaged O(1)
// matching upper bound next to an Ω(log n / log log n) worst-case lower
// bound — but a sweep only yields a finite table of (n, value) points. This
// package turns such a table into a verdict-ready classification: every
// candidate class Θ(f) is least-squares fitted as value ≈ a + b·f(n), the
// residuals are compared, and the best class is selected with an explicit
// separation margin. A confidence gate refuses to conclude when the rows
// are too few, the n-range too narrow, the residuals too large, or the
// margin between the candidate models too thin — an asymptotic claim must
// never be "confirmed" by a fit that cannot actually distinguish the
// growth classes on the given data.
//
// Selection works in two stages because the models nest: every growth
// model degenerates to the constant model at slope zero, so raw residual
// comparison would never pick Θ(1). First, each growth model is tested
// against the constant fit with an F-statistic; if none improves
// significantly, the data is flat and the class is Const. Otherwise the
// significant growth models compete on degree-of-freedom-adjusted relative
// residuals (the free exponent of Θ(n^α) costs a parameter), and among
// statistically tied models the slowest-growing class wins — on a finite
// range the faster classes can always imitate the slower ones, never the
// reverse, so Occam points downward.
package fit

import (
	"fmt"
	"math"
	"sort"
)

// Class names one candidate growth class, ordered from slowest to fastest
// growth by Rank.
type Class string

// The candidate growth classes of the paper's bounds.
const (
	Const         Class = "const"      // Θ(1)
	LogStar       Class = "logstar"    // Θ(log* n)
	LogLog        Class = "loglog"     // Θ(log log n)
	LogOverLogLog Class = "log/loglog" // Θ(log n / log log n)
	Log           Class = "log"        // Θ(log n)
	Poly          Class = "poly"       // Θ(n^α), α fitted
)

// Classes returns every candidate class, slowest growth first.
func Classes() []Class {
	return []Class{Const, LogStar, LogLog, LogOverLogLog, Log, Poly}
}

// Rank orders classes by asymptotic growth (0 = slowest). Unknown classes
// rank above everything, so comparisons against them never claim an upper
// bound that was not declared.
func Rank(c Class) int {
	for i, k := range Classes() {
		if k == c {
			return i
		}
	}
	return len(Classes())
}

// Valid reports whether c is one of the candidate classes.
func Valid(c Class) bool { return Rank(c) < len(Classes()) }

// LogStarN is the iterated base-2 logarithm: the number of times log₂ must
// be applied to n before the value drops to at most 1.
func LogStarN(n float64) float64 {
	if n <= 2 {
		return 1
	}
	count := 0.0
	for n > 1 {
		n = math.Log2(n)
		count++
	}
	return count
}

// eval computes the class's growth function at n, clamped to ≥ 1 so the
// slope coefficient's scale is comparable across classes.
func eval(c Class, alpha, n float64) float64 {
	switch c {
	case Const:
		return 1
	case LogStar:
		return LogStarN(n)
	case LogLog:
		return math.Max(math.Log2(math.Max(math.Log2(math.Max(n, 2)), 1)), 1)
	case LogOverLogLog:
		return math.Max(math.Log2(n)/math.Max(math.Log2(math.Max(math.Log2(math.Max(n, 2)), 1)), 1), 1)
	case Log:
		return math.Max(math.Log2(math.Max(n, 2)), 1)
	case Poly:
		return math.Pow(n, alpha)
	}
	return 1
}

// params is the parameter count of each model: intercept for Const,
// intercept+slope for the fixed-shape classes, plus the exponent for Poly.
func params(c Class) int {
	switch c {
	case Const:
		return 1
	case Poly:
		return 3
	default:
		return 2
	}
}

// Model is one candidate class's least-squares fit value ≈ a + b·f(n).
type Model struct {
	Class     Class   `json:"class"`
	Intercept float64 `json:"intercept"`
	Coeff     float64 `json:"coeff"`
	// Alpha is the fitted exponent; only meaningful for Poly.
	Alpha float64 `json:"alpha,omitempty"`
	// RMSE is the degree-of-freedom-adjusted relative residual:
	// sqrt(RSS/(rows − params)) divided by the mean absolute value, so
	// residuals are comparable across measures of different magnitudes
	// and the extra exponent of Poly is paid for.
	RMSE float64 `json:"rmse"`
	// F is the F-statistic of this model against the constant fit (0 for
	// Const itself): the evidence that its slope is really there. Capped
	// at MaxF so exact fits stay JSON-encodable.
	F   float64 `json:"f,omitempty"`
	rss float64
}

// Options tunes the confidence gate. The zero value selects the defaults.
type Options struct {
	// MinRows is the minimum number of distinct n values (default
	// DefaultMinRows): below it, no asymptotic statement is made.
	MinRows int
	// MinSpread is the minimum ratio max(n)/min(n) (default
	// DefaultMinSpread): a narrow sweep cannot separate growth classes.
	MinSpread float64
	// MinMargin is the minimum separation margin for a conclusive fit
	// (default DefaultMinMargin).
	MinMargin float64
	// TieSlack is the residual ratio within which two growth models are
	// treated as statistically tied (default DefaultTieSlack); the
	// slowest-growing tied model is selected.
	TieSlack float64
	// FCrit is the F-statistic a growth model must reach against the
	// constant fit to count as growing at all (default DefaultFCrit,
	// roughly the 5% critical value of F(1,3)).
	FCrit float64
	// MaxResidual is the largest relative residual the selected model may
	// have (default DefaultMaxResidual): beyond it no candidate describes
	// the data and the fit refuses.
	MaxResidual float64
}

// Gate defaults.
const (
	DefaultMinRows     = 4
	DefaultMinSpread   = 4.0
	DefaultMinMargin   = 1.5
	DefaultTieSlack    = 1.25
	DefaultFCrit       = 10.0
	DefaultMaxResidual = 0.25
)

func (o Options) withDefaults() Options {
	if o.MinRows <= 0 {
		o.MinRows = DefaultMinRows
	}
	if o.MinSpread <= 0 {
		o.MinSpread = DefaultMinSpread
	}
	if o.MinMargin <= 0 {
		o.MinMargin = DefaultMinMargin
	}
	if o.TieSlack <= 0 {
		o.TieSlack = DefaultTieSlack
	}
	if o.FCrit <= 0 {
		o.FCrit = DefaultFCrit
	}
	if o.MaxResidual <= 0 {
		o.MaxResidual = DefaultMaxResidual
	}
	return o
}

// Result is the classification of one sweep.
type Result struct {
	// Best is the selected growth class.
	Best Class `json:"best"`
	// Margin quantifies the separation. For a Const verdict it is
	// FCrit divided by the strongest growth model's F-statistic (how far
	// every growth model stays below significance); for a growth verdict
	// it is the residual of the best model outside the tie cluster
	// divided by the selected model's. Capped at MaxMargin; 1 means
	// nothing is separated.
	Margin float64 `json:"margin"`
	// Conclusive reports whether the gate passed; when false, Reason says
	// which check failed.
	Conclusive bool   `json:"conclusive"`
	Reason     string `json:"reason,omitempty"`
	// Models holds every candidate's fit in Classes() order.
	Models []Model `json:"models"`
	// Rows is the number of distinct (n, value) points fitted.
	Rows int `json:"rows"`
}

// MaxMargin caps the reported separation margin; a perfect fit would
// otherwise divide by ~0 and marshal poorly.
const MaxMargin = 1000

// MaxF caps the F-statistic: an exactly-fitting model's residual is 0 and
// the raw statistic diverges, which JSON cannot carry.
const MaxF = 1e9

// relEps guards divisions by near-zero residuals and means.
const relEps = 1e-9

// lsq least-squares fits y ≈ a + b·f with the slope clamped to b ≥ 0 (a
// negative slope means the measure shrinks with n; no growth class models
// that, so the fit degenerates to the constant model).
func lsq(ys, fs []float64) (a, b, rss float64) {
	n := float64(len(ys))
	var sf, sy, sff, sfy float64
	for i := range ys {
		sf += fs[i]
		sy += ys[i]
		sff += fs[i] * fs[i]
		sfy += fs[i] * ys[i]
	}
	det := n*sff - sf*sf
	if det > relEps {
		b = (n*sfy - sf*sy) / det
	}
	if b < 0 {
		b = 0
	}
	a = (sy - b*sf) / n
	for i := range ys {
		d := ys[i] - a - b*fs[i]
		rss += d * d
	}
	return a, b, rss
}

// polyAlphaMin floors the fitted exponent: n^α with α below it is flatter
// than any feasible sweep can distinguish from the sub-polynomial classes,
// so such a fit is a degenerate mimic, not evidence of polynomial growth.
const polyAlphaMin = 0.1

// fitClass fits one class on the prepared rows, searching the exponent
// grid for Poly.
func fitClass(c Class, xs, ys []float64, meanAbs float64) Model {
	dof := len(xs) - params(c)
	if dof < 1 {
		dof = 1
	}
	adj := func(rss float64) float64 {
		return math.Sqrt(rss/float64(dof)) / math.Max(meanAbs, relEps)
	}
	if c != Poly {
		fs := make([]float64, len(xs))
		for i, x := range xs {
			fs[i] = eval(c, 0, x)
		}
		a, b, rss := lsq(ys, fs)
		return Model{Class: c, Intercept: a, Coeff: b, RMSE: adj(rss), rss: rss}
	}
	// Poly: grid-search α, then refine once at a finer step around the
	// best point. Deterministic and cheap for sweep-sized inputs.
	best := Model{Class: Poly, RMSE: math.Inf(1), rss: math.Inf(1)}
	try := func(alpha float64) {
		fs := make([]float64, len(xs))
		for i, x := range xs {
			fs[i] = eval(Poly, alpha, x)
		}
		a, b, rss := lsq(ys, fs)
		if rss < best.rss {
			best = Model{Class: Poly, Intercept: a, Coeff: b, Alpha: alpha, RMSE: adj(rss), rss: rss}
		}
	}
	for alpha := polyAlphaMin; alpha <= 2.0+1e-12; alpha += 0.05 {
		try(alpha)
	}
	// Snapshot the coarse optimum before refining: try() mutates best, and
	// a live upper bound would let the window slide past the grid cap.
	lo, hi := math.Max(best.Alpha-0.045, polyAlphaMin), best.Alpha+0.05
	for alpha := lo; alpha < hi; alpha += 0.005 {
		try(alpha)
	}
	return best
}

// Fit classifies the sweep given by parallel slices of sizes xs and
// measured values ys. Duplicate x values are averaged first; rows are
// sorted by x. The returned Result always carries every model's fit; the
// Conclusive flag says whether Best/Margin clear the Options gate.
func Fit(xs, ys []float64, opt Options) (*Result, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("fit: %d sizes vs %d values", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("fit: no rows")
	}
	opt = opt.withDefaults()

	// Merge duplicate sizes (a sweep may revisit an n; their mean is the
	// best point estimate) and sort by size.
	sums := map[float64][2]float64{}
	for i, x := range xs {
		if x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("fit: invalid size %v at row %d", x, i)
		}
		if math.IsNaN(ys[i]) || math.IsInf(ys[i], 0) {
			return nil, fmt.Errorf("fit: invalid value %v at row %d", ys[i], i)
		}
		s := sums[x]
		sums[x] = [2]float64{s[0] + ys[i], s[1] + 1}
	}
	px := make([]float64, 0, len(sums))
	for x := range sums {
		px = append(px, x)
	}
	sort.Float64s(px)
	py := make([]float64, len(px))
	var meanAbs float64
	for i, x := range px {
		py[i] = sums[x][0] / sums[x][1]
		meanAbs += math.Abs(py[i])
	}
	meanAbs /= float64(len(py))

	res := &Result{Rows: len(px)}
	for _, c := range Classes() {
		res.Models = append(res.Models, fitClass(c, px, py, meanAbs))
	}

	// F-statistics against the constant fit: does the slope (and, for
	// Poly, the exponent) buy a significant residual reduction?
	rss0 := res.Models[0].rss
	n := float64(len(px))
	for i := range res.Models {
		m := &res.Models[i]
		if m.Class == Const {
			continue
		}
		extra := float64(params(m.Class) - 1)
		dof := n - float64(params(m.Class))
		if dof < 1 {
			dof = 1
		}
		num := (rss0 - m.rss) / extra
		den := m.rss / dof
		switch {
		case num <= 0:
			m.F = 0
		case den <= relEps*rss0+relEps:
			m.F = MaxF
		default:
			m.F = math.Min(num/den, MaxF)
		}
	}

	// Stage 1: is there significant growth at all?
	maxF := 0.0
	for _, m := range res.Models[1:] {
		maxF = math.Max(maxF, m.F)
	}
	selected := 0
	if maxF < opt.FCrit {
		res.Best = Const
		res.Margin = math.Min(opt.FCrit/math.Max(maxF, opt.FCrit/MaxMargin), MaxMargin)
	} else {
		// Stage 2: among significant growth models, cluster the ties and
		// take the slowest-growing member; the margin is the first
		// residual outside the cluster relative to the selected one.
		minRMSE := math.Inf(1)
		for _, m := range res.Models[1:] {
			if m.F >= opt.FCrit {
				minRMSE = math.Min(minRMSE, m.RMSE)
			}
		}
		threshold := minRMSE*opt.TieSlack + relEps
		next := math.Inf(1)
		for i, m := range res.Models {
			if m.Class == Const || m.F < opt.FCrit {
				continue
			}
			if m.RMSE <= threshold {
				if selected == 0 {
					selected = i // Models are in Classes() growth order.
				}
			} else {
				next = math.Min(next, m.RMSE)
			}
		}
		res.Best = res.Models[selected].Class
		if math.IsInf(next, 1) {
			// Nothing outside the cluster: fall back on how decisively
			// the selected model beats flatness.
			res.Margin = math.Min(res.Models[selected].F/opt.FCrit, MaxMargin)
		} else {
			res.Margin = math.Min(next/math.Max(res.Models[selected].RMSE, relEps), MaxMargin)
		}
	}

	spread := px[len(px)-1] / px[0]
	switch {
	case len(px) < opt.MinRows:
		res.Reason = fmt.Sprintf("only %d distinct sizes, need %d", len(px), opt.MinRows)
	case spread < opt.MinSpread:
		res.Reason = fmt.Sprintf("size spread %.2g below %.2g", spread, opt.MinSpread)
	case res.Models[selected].RMSE > opt.MaxResidual:
		res.Reason = fmt.Sprintf("best model residual %.2f above %.2f: no candidate fits", res.Models[selected].RMSE, opt.MaxResidual)
	case res.Margin < opt.MinMargin:
		res.Reason = fmt.Sprintf("margin %.2f below %.2f: classes not separated", res.Margin, opt.MinMargin)
	default:
		res.Conclusive = true
	}
	return res, nil
}
