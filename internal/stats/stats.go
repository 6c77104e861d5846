// Package stats provides the small numerical toolbox WindServe needs:
// least-squares polynomial regression (used by the Profiler to fit the
// paper's eqs. 1–2), percentile computation, and the mean and R² the fits
// are judged by.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrSingular is returned when a regression system has no unique solution
// (e.g. fewer distinct sample points than coefficients).
var ErrSingular = errors.New("stats: singular system, not enough distinct samples")

// PolyFit fits y ≈ c[0] + c[1]·x + … + c[degree]·x^degree by ordinary least
// squares and returns the coefficients, lowest order first.
//
// The Profiler uses degree 2 for prefill (T = c_p + a_p·N + b_p·N²) and
// degree 1 for decode (T = c_d + a_d·ΣL), matching the paper §3.2.1.
func PolyFit(xs, ys []float64, degree int) ([]float64, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("stats: len(xs)=%d != len(ys)=%d", len(xs), len(ys))
	}
	if degree < 0 {
		return nil, fmt.Errorf("stats: negative degree %d", degree)
	}
	n := degree + 1
	if len(xs) < n {
		return nil, ErrSingular
	}
	// Normal equations: (VᵀV)c = Vᵀy with Vandermonde V.
	// Accumulate moments sum(x^k) for k=0..2·degree and sum(y·x^k).
	moments := make([]float64, 2*degree+1)
	rhs := make([]float64, n)
	for i, x := range xs {
		pk := 1.0
		for k := 0; k <= 2*degree; k++ {
			moments[k] += pk
			if k < n {
				rhs[k] += ys[i] * pk
			}
			pk *= x
		}
	}
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n+1)
		for j := 0; j < n; j++ {
			a[i][j] = moments[i+j]
		}
		a[i][n] = rhs[i]
	}
	c, err := solveGauss(a)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// solveGauss solves the augmented system a (n×(n+1)) in place by Gaussian
// elimination with partial pivoting.
func solveGauss(a [][]float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return nil, ErrSingular
		}
		a[col], a[pivot] = a[pivot], a[col]
		// Eliminate.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c <= n; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := a[i][n]
		for j := i + 1; j < n; j++ {
			sum -= a[i][j] * x[j]
		}
		x[i] = sum / a[i][i]
	}
	return x, nil
}

// PolyEval evaluates a polynomial with coefficients c (lowest order first)
// at x using Horner's rule.
func PolyEval(c []float64, x float64) float64 {
	y := 0.0
	for i := len(c) - 1; i >= 0; i-- {
		y = y*x + c[i]
	}
	return y
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns NaN for an empty slice.
// xs is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p)
}

// PercentilesOf computes several percentiles with a single sort.
func PercentilesOf(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	for i, p := range ps {
		out[i] = PercentileSorted(sorted, p)
	}
	return out
}

// PercentileSorted is Percentile on already-sorted, non-empty data, with
// no copy: the one percentile interpolation every caller shares.
func PercentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs (NaN if empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// R2 returns the coefficient of determination of predictions yhat against
// observations y; 1 means a perfect fit.
func R2(y, yhat []float64) float64 {
	if len(y) == 0 || len(y) != len(yhat) {
		return math.NaN()
	}
	m := Mean(y)
	var ssRes, ssTot float64
	for i := range y {
		d := y[i] - yhat[i]
		ssRes += d * d
		t := y[i] - m
		ssTot += t * t
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return math.NaN()
	}
	return 1 - ssRes/ssTot
}
