package main

import (
	"math"
	"testing"
)

// The expected quartiles are Python's statistics.quantiles(vs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{4}, 4, 4},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{7, 1, 3, 5, 9, 11, 2}, 2, 9},
		{[]float64{169.2, 171.0, 150.3, 188.8, 160.1, 175.5, 166.0, 158.7, 181.2, 170.4}, 159.75, 176.925},
	} {
		q1, q3 := quartiles(c.vs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.vs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	// ten runs around 100 with quartiles 97.75 and 102.25 (IQR 4.5).
	base := []float64{95, 96, 98, 99, 100, 100, 101, 102, 103, 105}
	shift := func(vs []float64, d float64) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = v + d
		}
		return out
	}
	wide := []float64{60, 70, 80, 90, 100, 100, 110, 120, 130, 140}
	for _, c := range []struct {
		name         string
		dir          string
		bound        float64
		spreadExempt bool
		base, head   []float64
		want         string
	}{
		{"lower is better, all pairs won by more than the IQR", "lower", 0.25, false, base, shift(base, -10), gain},
		{"higher is better, the same move is a loss inside the bound", "higher", 0.25, false, base, shift(base, -10), neutral},
		{"won 10/10 but by less than the IQR", "lower", 0.25, false, base, shift(base, -1), neutral},
		{"a median worse by more than the bound", "lower", 0.25, false, base, shift(base, 30), regression},
		{"a spread beyond the bound", "lower", 0.25, false, base, wide, unresolved},
		{"setup_s's spread is not held against its bound", "lower", 0.25, true, base, wide, neutral},
		{"no bound: a per-layer metric", "higher", 0, false, base, shift(base, 30), gain},
		{"no bound and a worse median", "higher", 0, false, base, shift(base, -30), neutral},
		{"ties count for neither side", "lower", 0.25, false, base, base, neutral},
	} {
		won := 0
		for i := range c.base {
			if better(c.dir, c.head[i], c.base[i]) {
				won++
			}
		}
		got := verdict(c.dir, c.bound, c.spreadExempt, summarize(c.base), summarize(c.head), won, len(c.base), pairedEffect(c.base, c.head))
		if got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// Nine pairs in ten is a gain, eight is not, even when the medians have
// moved by more than the base's IQR.
func TestVerdictNeedsNineInTen(t *testing.T) {
	base := []float64{95, 96, 98, 99, 100, 100, 101, 102, 103, 105}
	head := []float64{85, 86, 88, 89, 90, 90, 91, 92, 93, 95}
	b, h := summarize(base), summarize(head)
	p := pairedEffect(base, head)
	if got := verdict("lower", 0.25, false, b, h, 9, 10, p); got != gain {
		t.Errorf("9/10: %q, want gain", got)
	}
	if got := verdict("lower", 0.25, false, b, h, 8, 10, p); got != neutral {
		t.Errorf("8/10: %q, want neutral", got)
	}
}

// TestVerdictReadsPairedInterval: with a bound of 0.25 the line is
// log 1.25 ≈ 0.223 on the worse side of log(head/base). Each head is
// base·exp(d) with the per-pair log ratios d given, so the interval is
// [d(2), d(9)] of the sorted ten.
func TestVerdictReadsPairedInterval(t *testing.T) {
	// A base whose quartiles (950.7, 1381.25) lie 36 % of its median
	// (1204) apart.
	wideBase := []float64{954.1, 940.5, 928.8, 1372, 1409, 1235, 1412, 1173, 1133, 1259}
	scale := func(vs, d []float64) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = v * math.Exp(d[i])
		}
		return out
	}
	for _, c := range []struct {
		name       string
		dir        string
		base, head []float64
		want       string
	}{
		{"a wide spread with the interval inside the line", "higher", wideBase,
			scale(wideBase, []float64{0.03, -0.04, 0.01, 0.05, -0.02, 0, 0.02, -0.01, 0.04, -0.03}), neutral},
		{"a wide spread with the interval reaching past the worse line", "higher", wideBase,
			scale(wideBase, []float64{0.03, -0.3, 0.01, 0.05, -0.25, 0, 0.02, -0.01, 0.04, -0.03}), unresolved},
		{"a wide spread and five pairs: no interval reaches 95 %", "higher", wideBase[:5],
			scale(wideBase[:5], []float64{0.03, -0.04, 0.01, 0.05, -0.02}), unresolved},
		// Medians 1204 -> 926 (23 % worse, inside the bound), but the
		// interval [0.24, 0.29] lies past the line.
		{"an interval wholly beyond the worse line", "higher", wideBase,
			scale(wideBase, []float64{-0.24, -0.25, -0.26, -0.3, -0.27, -0.28, -0.29, -0.245, -0.255, -0.235}), regression},
		{"the same interval on a lower-is-better metric", "lower", wideBase,
			scale(wideBase, []float64{0.24, 0.25, 0.26, 0.3, 0.27, 0.28, 0.29, 0.245, 0.255, 0.235}), regression},
		// sim_rubis ops_per_s of the RUBiS request-path change: parent
		// runs 929–1412, 10/10 pairs won, interval [0.2228, 0.4091], a
		// median move (457) past the base IQR (431). Its side spread alone
		// read "unresolved".
		{"the request-path change's sim_rubis shape", "higher", wideBase,
			[]float64{1424, 1187, 1795, 1571, 1909, 1859, 1765, 1566, 1683, 1639}, gain},
	} {
		won := 0
		for i := range c.base {
			if better(c.dir, c.head[i], c.base[i]) {
				won++
			}
		}
		b, h := summarize(c.base), summarize(c.head)
		got := verdict(c.dir, 0.25, false, b, h, won, len(c.base), pairedEffect(c.base, c.head))
		if got != c.want {
			t.Errorf("%s: verdict %q, want %q (paired %+v)", c.name, got, c.want, pairedEffect(c.base, c.head))
		}
	}
}

func TestJudgeCountsPairs(t *testing.T) {
	r := judge(metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.25},
		[]float64{10, 20, 30, 40}, []float64{11, 20, 29, 44})
	if r.Won != 2 || r.Lost != 1 {
		t.Errorf("won %d lost %d, want 2 and 1 (one tie)", r.Won, r.Lost)
	}
	if want := 24.5 / 25.0; math.Abs(r.Ratio-want) > 1e-12 {
		t.Errorf("ratio %v, want %v", r.Ratio, want)
	}
}

func TestParseSeedsCycles(t *testing.T) {
	got, err := parseSeeds("31, 32,33", 7)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{31, 32, 33, 31, 32, 33, 31}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseSeeds = %v, want %v", got, want)
		}
	}
	if got, _ := parseSeeds("", 3); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("default seeds %v, want 1 2 3", got)
	}
}

// The sign-test interval on ten pairs is [d(2), d(9)] of the sorted log
// ratios, at coverage 1 - 2·P(B <= 1) = 1 - 22/1024.
func TestPairedIntervalKnownShift(t *testing.T) {
	base := []float64{95, 96, 98, 99, 100, 100, 101, 102, 103, 105}
	// log ratios: 0.1 plus a spread of -0.04..+0.05 (median 0.005), in
	// shuffled order.
	noise := []float64{0.03, -0.04, 0.01, 0.05, -0.02, 0, 0.02, -0.01, 0.04, -0.03}
	head := make([]float64, len(base))
	for i := range base {
		head[i] = base[i] * math.Exp(0.1+noise[i])
	}
	p := pairedEffect(base, head)
	const eps = 1e-9
	if p == nil || p.Pairs != 10 {
		t.Fatalf("paired = %+v, want ten pairs", p)
	}
	if math.Abs(p.LogRatio-0.105) > eps || math.Abs(p.Lo-0.07) > eps || math.Abs(p.Hi-0.14) > eps {
		t.Errorf("log ratio %v in [%v, %v], want 0.105 in [0.07, 0.14]", p.LogRatio, p.Lo, p.Hi)
	}
	if want := 1 - 22.0/1024; math.Abs(p.Coverage-want) > eps {
		t.Errorf("coverage %v, want %v", p.Coverage, want)
	}
}

// With no shift the interval straddles zero.
func TestPairedIntervalNoShift(t *testing.T) {
	base := []float64{95, 96, 98, 99, 100, 100, 101, 102, 103, 105}
	noise := []float64{0.03, -0.04, 0.01, 0.05, -0.02, 0, 0.02, -0.01, 0.04, -0.03}
	head := make([]float64, len(base))
	for i := range base {
		head[i] = base[i] * math.Exp(noise[i])
	}
	p := pairedEffect(base, head)
	if p == nil || math.Abs(p.LogRatio-0.005) > 1e-9 || math.Abs(p.Lo+0.03) > 1e-9 || math.Abs(p.Hi-0.04) > 1e-9 {
		t.Fatalf("paired = %+v, want log ratio 0.005 in [-0.03, 0.04]", p)
	}
}

// Below six pairs no order statistic reaches 95 %: the interval is the
// range and says what it covers. Pairs with no log ratio drop out.
func TestPairedIntervalFewPairs(t *testing.T) {
	p := pairedEffect([]float64{1, 1, 1, 1, 1, 0}, []float64{2, 3, 1, 4, 5, 7})
	if p == nil || p.Pairs != 5 || p.Lo != 0 || math.Abs(p.Hi-math.Log(5)) > 1e-9 {
		t.Fatalf("paired = %+v, want five pairs spanning [0, log 5]", p)
	}
	if want := 1 - 2.0/32; math.Abs(p.Coverage-want) > 1e-12 {
		t.Errorf("coverage %v, want %v", p.Coverage, want)
	}
	if p := pairedEffect([]float64{0}, []float64{1}); p != nil {
		t.Errorf("paired = %+v for a pair with no log ratio, want nil", p)
	}
}
