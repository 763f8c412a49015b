package main

import (
	"math"
	rtm "runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// median returns the middle of vs (mean of the two middles for an even
// count), 0 for none. It does not reorder vs.
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

// trimmedMean drops the lowest and highest share `trim` of vs (rounded
// down to whole samples) and averages the rest.
func trimmedMean(vs []float64, trim float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	k := int(trim * float64(len(s)))
	s = s[k : len(s)-k]
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of vs.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s[rank(len(s), p)]
}

// rank is the nearest-rank index of the p-th percentile among n sorted
// samples.
func rank(n int, p float64) int {
	// The epsilon keeps 99.9% of 10000 at rank 9990, not 9991.
	i := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// tailPercentiles are the tails a latency report may quote.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99}

// highestTail returns the highest of tailPercentiles that still has at
// least ten of n samples beyond it, or 0 when not even the median does:
// a p99 quoted from 200 samples is the second-worst sample, not a
// percentile.
func highestTail(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if n-1-rank(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// quartiles returns Q1 and Q3 by the method of Python's
// statistics.quantiles(vs, n=4) (exclusive), which is what the driver
// uses to judge a metric's spread. It needs two values or more.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(m)
}

// procSnap is the process read from outside: getrusage and the runtime's
// own exported metrics. Deltas of two snapshots bracket a timed round.
type procSnap struct {
	at          time.Time
	user, sys   time.Duration
	ctxSwitches int64
	maxRSSKiB   int64
	allocs      uint64
	allocBytes  uint64
	mutexWait   float64 // seconds
	gcCPU       float64 // seconds
	sched       *rtm.Float64Histogram
}

var procSamples = []rtm.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/sync/mutex/wait/total:seconds"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/sched/latencies:seconds"},
}

func snapProc() procSnap {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := make([]rtm.Sample, len(procSamples))
	copy(s, procSamples)
	rtm.Read(s)
	snap := procSnap{
		at:          time.Now(),
		user:        time.Duration(ru.Utime.Nano()),
		sys:         time.Duration(ru.Stime.Nano()),
		ctxSwitches: int64(ru.Nvcsw + ru.Nivcsw),
		maxRSSKiB:   int64(ru.Maxrss),
	}
	// Every name above exists from go 1.20 on, below go.mod's floor.
	snap.allocs = s[0].Value.Uint64()
	snap.allocBytes = s[1].Value.Uint64()
	snap.mutexWait = s[2].Value.Float64()
	snap.gcCPU = s[3].Value.Float64()
	h := s[4].Value.Float64Histogram()
	snap.sched = &rtm.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets}
	return snap
}

// procDelta is what the process spent between two snapshots.
type procDelta struct {
	wall        time.Duration
	user, sys   time.Duration
	ctxSwitches int64
	allocs      uint64
	allocBytes  uint64
	mutexWait   time.Duration
	gcCPUShare  float64
	schedP99    time.Duration
}

func (d procDelta) cpu() time.Duration { return d.user + d.sys }

func (a procSnap) until(b procSnap) procDelta {
	d := procDelta{
		wall:        b.at.Sub(a.at),
		user:        b.user - a.user,
		sys:         b.sys - a.sys,
		ctxSwitches: b.ctxSwitches - a.ctxSwitches,
		allocs:      b.allocs - a.allocs,
		allocBytes:  b.allocBytes - a.allocBytes,
		mutexWait:   time.Duration((b.mutexWait - a.mutexWait) * 1e9),
	}
	if cpu := d.cpu().Seconds(); cpu > 0 {
		d.gcCPUShare = (b.gcCPU - a.gcCPU) / cpu
	}
	d.schedP99 = histogramDeltaP99(a.sched, b.sched)
	return d
}

// histogramDeltaP99 is the upper edge of the bucket holding the 99th
// percentile of the samples added between two reads of one histogram.
func histogramDeltaP99(a, b *rtm.Float64Histogram) time.Duration {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen >= want {
			edge := b.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = b.Buckets[i]
			}
			return time.Duration(edge * 1e9)
		}
	}
	return 0
}
