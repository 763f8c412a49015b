package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"hipcloud/internal/hipudp"
	"hipcloud/internal/keymat"
)

func TestPercentileHelpers(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := median(ten); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := percentile(ten, 50); got != 5 {
		t.Errorf("p50 = %v, want 5 (nearest rank)", got)
	}
	if got := percentile(ten, 99); got != 10 {
		t.Errorf("p99 of ten = %v, want the maximum", got)
	}
	if got := trimmedMean([]float64{100, 3, 2, 1, 4, 5, 6, 7, 8, -50}, 0.10); got != 4.5 {
		t.Errorf("10%%-trimmed mean = %v, want 4.5 (both outliers dropped)", got)
	}
	if got := trimmedMean([]float64{1, 2, 6}, 0.10); got != 3 {
		t.Errorf("trimmed mean of three = %v, want their mean", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got, want := spread(ten), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {19, 0}, {20, 50}, {101, 90}, {999, 90}, {1000, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from spec.go; regenerate it with `go run . -spec > ../BENCHMARK.json`")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(m metricSpec) {
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is malformed", m.Name, m.Unit)
		}
		if m.Better != lo && m.Better != hi {
			t.Errorf("%s: direction %q", m.Name, m.Better)
		}
	}
	var setup bool
	for _, m := range endToEnd {
		check(m)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lo)
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range perLayer {
		check(m.metricSpec)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	for _, w := range workloadSpecs {
		if !name.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or a why of %d characters", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
}

// tinyRun runs one workload at the smoke scale, writing any trace to dir.
func tinyRun(t *testing.T, workload string, trace bool, dir string) report {
	t.Helper()
	rep, err := run(runConfig{
		workload: workload, seed: 7, seconds: 0.2, trace: trace, scale: tinyScale, outDir: dir,
	})
	if err != nil {
		t.Fatalf("%s (trace=%v): %v", workload, trace, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("%s (trace=%v): correct=%v attempted=%d failed=%d", workload, trace, rep.Correct, rep.Attempted, rep.Failed)
	}
	return rep
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	share := map[string]float64{}
	dir := t.TempDir()
	for _, w := range workloadSpecs {
		rep := tinyRun(t, w.Name, false, dir)
		if len(rep.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.Name, len(rep.Metrics), len(endToEnd))
		}
		for _, spec := range endToEnd {
			v, ok := rep.Metrics[spec.Name]
			if !ok || v.Unit != spec.Unit || !(v.Value > 0) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: %s = %+v (present %v), want a positive %s", w.Name, spec.Name, v, ok, spec.Unit)
			}
		}

		rep = tinyRun(t, w.Name, true, dir)
		if len(rep.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.Name, len(rep.Metrics), len(perLayer))
		}
		for _, spec := range perLayer {
			v, ok := rep.Metrics[spec.Name]
			switch {
			case !ok || v.Unit != spec.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
				t.Errorf("%s: %s = %+v (present %v), want a finite %s", w.Name, spec.Name, v, ok, spec.Unit)
			case !spec.realm.covers(w.Name) && v.Value != 0:
				t.Errorf("%s: %s = %v, but the layer is idle on this workload", w.Name, spec.Name, v.Value)
			case spec.realm.covers(w.Name) && !spec.mayBeZero && v.Value == 0:
				t.Errorf("%s: %s = 0, but the workload owns it", w.Name, spec.Name)
			}
		}
		var trace struct {
			Workload string `json:"workload"`
			Spans    []span `json:"spans"`
		}
		if b, err := os.ReadFile(filepath.Join(dir, "trace-"+w.Name+".json")); err != nil {
			t.Error(err)
		} else if err := json.Unmarshal(b, &trace); err != nil || trace.Workload != w.Name || len(trace.Spans) == 0 {
			t.Errorf("%s: trace file has %d spans for %q (%v)", w.Name, len(trace.Spans), trace.Workload, err)
		}
		if w.Name != wBulkGCM && w.Name != wBulkCTR {
			continue
		}
		// The CPU split adds up, with something left for the driver.
		m := func(n string) float64 { return rep.Metrics[n].Value }
		total := m("hipudp.cpu_ns_per_pkt")
		parts := m("socket.sys_cpu_ns_per_pkt") + m("esp.seal_ns_per_pkt") + m("esp.open_ns_per_pkt") +
			m("stream.ns_per_pkt") + m("hipudp.residual_ns_per_pkt")
		if math.Abs(parts-total) > 0.03*total {
			t.Errorf("%s: CPU split sums to %v ns/pkt, total is %v", w.Name, parts, total)
		}
		if m("hipudp.residual_ns_per_pkt") < 0 {
			t.Errorf("%s: negative residual %v ns/pkt: the probes exceed the total", w.Name, m("hipudp.residual_ns_per_pkt"))
		}
		// DefaultOptions batch: Options{} would make one syscall per packet.
		if hipudp.VectoredIO() && m("hipudp.tx_syscalls_per_pkt") > 0.5 {
			t.Errorf("%s: %v tx syscalls per packet: batching is off", w.Name, m("hipudp.tx_syscalls_per_pkt"))
		}
		share[w.Name] = m("esp.crypto_share")
	}
	if share[wBulkCTR] <= share[wBulkGCM] {
		t.Errorf("esp.crypto_share is %v on %s and %v on %s; CTR+HMAC should cost visibly more",
			share[wBulkCTR], wBulkCTR, share[wBulkGCM], wBulkGCM)
	}
}

func TestNegotiatedSuiteIsTheOneNamed(t *testing.T) {
	for _, c := range []struct {
		workload string
		want     keymat.Suite
	}{{wBulkGCM, keymat.SuiteAESGCM128}, {wBulkCTR, keymat.SuiteAESCTRSHA256}} {
		w, err := newWorkload(c.workload, tinyScale)
		if err != nil {
			t.Fatal(err)
		}
		b := w.(*bulkWorkload)
		if err := b.setUp(11, nil, open{}); err != nil {
			t.Fatal(err)
		}
		b.tearDown() // the stacks are closed: nothing else reads the hosts now
		for _, a := range b.pair.a.Host().Associations() {
			if a.Suite() != c.want {
				t.Errorf("%s negotiated %v, want %v", c.workload, a.Suite(), c.want)
			}
		}
		if n := len(b.pair.a.Host().Associations()); n != 1 {
			t.Errorf("%s: %d associations on the initiator, want 1", c.workload, n)
		}
	}
}

func TestPatternExposesMisdelivery(t *testing.T) {
	p := newPattern(3)
	if !bytes.Equal(p.at(patternLen-10, 100)[10:], p.at(0, 90)) {
		t.Error("the pattern does not wrap around at patternLen")
	}
	if bytes.Equal(p.at(0, bulkChunk), p.at(bulkChunk, bulkChunk)) {
		t.Error("two consecutive chunks are equal: a lost chunk would go unnoticed")
	}
	if bytes.Equal(newPattern(3).at(0, 64), newPattern(4).at(0, 64)) {
		t.Error("two seeds give the same payload")
	}
}

func TestCompareSets(t *testing.T) {
	mk := func(ops, lat float64, spreadOps float64) set {
		s := set{Metrics: map[string]map[string]summary{}}
		for _, w := range workloadSpecs {
			s.Metrics[w.Name] = map[string]summary{}
			for _, spec := range endToEnd {
				s.Metrics[w.Name][spec.Name] = summary{Median: lat}
			}
			s.Metrics[w.Name]["ops_per_s"] = summary{Median: ops, Spread: spreadOps}
		}
		return s
	}
	if _, n := compareSets(mk(100, 10, 0.01), mk(99, 10.5, 0.01)); n != 0 {
		t.Errorf("%d breaches between two sets inside every bound", n)
	}
	// Throughput is better higher: losing 30% is a breach, gaining 30% is not.
	if _, n := compareSets(mk(100, 10, 0.01), mk(70, 10, 0.01)); n != len(workloadSpecs) {
		t.Errorf("%d breaches for a 30%% throughput loss, want one per workload", n)
	}
	if _, n := compareSets(mk(100, 10, 0.01), mk(130, 10, 0.01)); n != 0 {
		t.Errorf("%d breaches for a throughput gain", n)
	}
	if _, n := compareSets(mk(100, 10, 0.5), mk(100, 10, 0.01)); n != len(workloadSpecs) {
		t.Errorf("%d breaches for a spread of half the median, want one per workload", n)
	}
}
