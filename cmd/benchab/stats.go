package main

import (
	"math"
	"sort"
)

// side is one metric's runs on one side of a comparison.
type side struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Runs   []float64 `json:"runs"`
}

func summarize(runs []float64) side {
	q1, q3 := quartiles(runs)
	return side{Median: median(runs), Q1: q1, Q3: q3, Runs: runs}
}

// iqr is the distance between the quartiles.
func (s side) iqr() float64 { return s.Q3 - s.Q1 }

// spread is the distance between the quartiles as a share of the median.
func (s side) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return s.iqr() / math.Abs(s.Median)
}

// median is the middle of vs (the mean of the two middles for an even
// count), 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 by the method of Python's
// statistics.quantiles(vs, n=4), the exclusive one, as bench/ and the
// benchmark's acceptance rule compute them.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 { // the i-th of 4 cut points
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// better reports whether a beats b in the metric's direction.
func better(dir string, a, b float64) bool {
	if dir == "higher" {
		return a > b
	}
	return a < b
}

// worsening is how much worse head's median is than base's, as a share
// of base's: positive when worse, whichever direction is better.
func worsening(dir string, base, head float64) float64 {
	if base == 0 {
		return 0
	}
	if dir == "higher" {
		return (base - head) / base
	}
	return (head - base) / base
}

// Verdicts, by the pair protocol: a gain needs nine pairs in ten and a
// median moved by more than the base's own interquartile distance; a
// regression or an unresolved spread is judged against the metric's bound.
const (
	gain       = "gain"
	regression = "regression"
	unresolved = "unresolved"
	neutral    = "neutral"
)

// verdict judges one metric. bound <= 0 means the metric has none (a
// per-layer metric), so it can be a gain or neutral only; spreadExempt
// is setup_s, whose spread the benchmark does not hold against its
// bound.
func verdict(dir string, bound float64, spreadExempt bool, base, head side, won, pairs int) string {
	if bound > 0 {
		if worsening(dir, base.Median, head.Median) > bound {
			return regression
		}
		if !spreadExempt && (base.spread() > bound || head.spread() > bound) {
			return unresolved
		}
	}
	if pairs > 0 && won*10 >= 9*pairs && better(dir, head.Median, base.Median) &&
		math.Abs(head.Median-base.Median) > base.iqr() {
		return gain
	}
	return neutral
}

// paired is one metric's paired effect: the median of the per-pair
// log(head/base), and a distribution-free interval for it from the order
// statistics of the sign test, [d(k), d(n-k+1)] of the n sorted log
// ratios, with k the largest that keeps the coverage at 95 % or more.
// Coverage is what that k achieves: below 0.95 when there are too few
// pairs for any k (fewer than six), and then the interval is the range.
// Pairing cancels the drift between pairs that comparing each side's
// median carries. A pair with a value at or below zero has no log ratio
// and is left out of Pairs.
type paired struct {
	LogRatio float64 `json:"log_ratio"`
	Lo       float64 `json:"lo"`
	Hi       float64 `json:"hi"`
	Coverage float64 `json:"coverage"`
	Pairs    int     `json:"pairs"`
}

// pairedEffect computes the paired effect of base[i] -> head[i], nil when
// no pair has a log ratio.
func pairedEffect(base, head []float64) *paired {
	var d []float64
	for i := range base {
		if base[i] > 0 && head[i] > 0 {
			d = append(d, math.Log(head[i]/base[i]))
		}
	}
	n := len(d)
	if n == 0 {
		return nil
	}
	sort.Float64s(d)
	k, coverage := 1, 1-2*binomTail(n, 0)
	for k+1 <= n/2 {
		c := 1 - 2*binomTail(n, k)
		if c < 0.95 {
			break
		}
		k, coverage = k+1, c
	}
	return &paired{LogRatio: median(d), Lo: d[k-1], Hi: d[n-k], Coverage: coverage, Pairs: n}
}

// binomTail is P(B <= j) for B ~ Binomial(n, 1/2).
func binomTail(n, j int) float64 {
	lf := func(x int) float64 { v, _ := math.Lgamma(float64(x + 1)); return v }
	p := 0.0
	for i := 0; i <= j; i++ {
		p += math.Exp(lf(n) - lf(i) - lf(n-i) - float64(n)*math.Ln2)
	}
	return p
}
