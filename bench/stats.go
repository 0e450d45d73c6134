package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. An empty input yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads computed here and by an external checker agree.
// Inputs shorter than two values yield their single value (or 0) three
// times.
func quartiles(xs []float64) [3]float64 {
	s := sorted(xs)
	var out [3]float64
	switch len(s) {
	case 0:
		return out
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	const n = 4
	ld := len(s)
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out
}

// timing is a sample of one repeated measurement, reported as its
// percentiles with the sample count.
type timing struct {
	Name string
	Unit string
	Vals []float64
}

func (t timing) p(q float64) float64 { return percentile(t.Vals, q) }
