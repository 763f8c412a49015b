package main

import (
	"fmt"
	"os"
	"time"

	"hipcloud/internal/keymat"
)

// scale sizes one round of each workload. Rounds are fixed work; a run
// repeats them until its time is up and reports medians over rounds.
type scale struct {
	bulkChunks int           // 16 KiB writes per udp_bulk_* round
	rrOps      int           // round trips per udp_rr round
	connects   int           // initiators per udp_connect round
	simClients int           // closed-loop RUBiS clients
	simWarmup  time.Duration // virtual
	simMeasure time.Duration // virtual, after the warm-up
	probe      time.Duration // host time each replay probe may take
	assocs     int           // associations held for hip.ontimer_ns_per_assoc
	simBulk    int           // bytes of the in-simulator transfer probes
}

var (
	// fullScale is what the driver runs: a bulk round is 32 MiB (~0.35 s
	// here), a connect round has the ten samples beyond its p99 that the
	// percentile rule asks for, and a simulator round is three points of
	// 5 s virtual time (~1 s of host time each).
	fullScale = scale{
		bulkChunks: 2048, rrOps: 20000, connects: 1000,
		simClients: 50, simWarmup: 3 * time.Second, simMeasure: 5 * time.Second,
		probe: 100 * time.Millisecond, assocs: 256, simBulk: 8 << 20,
	}
	// tinyScale keeps `go test` under ten seconds.
	tinyScale = scale{
		bulkChunks: 64, rrOps: 300, connects: 12,
		simClients: 8, simWarmup: time.Second, simMeasure: time.Second,
		probe: 5 * time.Millisecond, assocs: 16, simBulk: 256 << 10,
	}
)

// roundResult is one timed round.
type roundResult struct {
	ops     int           // operations attempted
	failed  int           // of them, how many failed a check
	wall    time.Duration // first call to last verified result
	payload int64         // payload bytes the operations moved
	pkts    int64         // packets the network layer under the workload sent
	lat     []float64     // µs, one per operation that passed
	proc    procDelta     // the process over the round, filled in by run
	udp     udpCounters   // zero on sim_rubis
	calls   callTimes     // traced rounds only
	sim     []simPoint    // sim_rubis only
}

func (r roundResult) opsPerSec() float64  { return float64(r.ops-r.failed) / r.wall.Seconds() }
func (r roundResult) cpuUsPerOp() float64 { return us(r.proc.cpu()) / float64(r.ops) }

// workload is one of the five. setUp builds what the rounds need from
// the seed and runs one untimed warm-up round; layers turns the traced
// rounds, and replay probes sized from them, into per-layer metrics.
type workload interface {
	setUp(seed int64, tr *tracer, parent open) error
	round(tr *tracer, root open) (roundResult, error)
	tearDown()
	layers(m metrics, seed int64, traced []roundResult, tr *tracer) error
}

func newWorkload(name string, sc scale) (workload, error) {
	switch name {
	case wBulkGCM:
		return &bulkWorkload{suite: keymat.SuiteAESGCM128, sc: sc}, nil
	case wBulkCTR:
		return &bulkWorkload{suite: keymat.SuiteAESCTRSHA256, sc: sc}, nil
	case wRR:
		return &rrWorkload{sc: sc}, nil
	case wConnect:
		return &connectWorkload{sc: sc}, nil
	case wSim:
		return &simWorkload{sc: sc}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    scale
	outDir   string // where a traced run writes its spans
}

// report is what one run prints as its last line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

const (
	// setUps is how often a run sets its workload up; setup_s is their
	// median, so one slow start does not decide it.
	setUps = 3
	// stallLimit is how long set-up or one round may take before the run
	// gives up; it keeps a hung stream from outliving the driver's patience.
	stallLimit = 90 * time.Second
)

// run measures one workload: set up, repeat rounds for cfg.seconds, and
// reduce them to the end-to-end metrics (tracing off) or to the
// per-layer metrics (tracing on, every second round traced so that the
// untraced ones give the tracing overhead).
func run(cfg runConfig) (report, error) {
	w, err := newWorkload(cfg.workload, cfg.scale)
	if err != nil {
		return report{}, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer(cfg.workload)
	}
	stall := time.AfterFunc(stallLimit, func() {
		fmt.Fprintf(os.Stderr, "bench: %s stalled for %v\n", cfg.workload, stallLimit)
		os.Exit(1)
	})
	defer stall.Stop()

	var setups []float64
	for i := 0; i < setUps; i++ {
		if i > 0 {
			w.tearDown()
		}
		stall.Reset(stallLimit)
		sp := tr.begin("setUp", open{})
		t0 := time.Now()
		// Each set-up has its own seed, so none finds the identities the
		// one before it generated and cached.
		err := w.setUp(cfg.seed*setUps+int64(i), tr, sp)
		setups = append(setups, time.Since(t0).Seconds())
		sp.end()
		if err != nil {
			w.tearDown()
			return report{}, fmt.Errorf("set-up %d: %w", i, err)
		}
	}
	defer w.tearDown()

	rep := report{Metrics: map[string]metricValue{}}
	// A round is started while more than half of it still fits, so the
	// time measured is cfg.seconds to within half a round; a traced run
	// needs one round of each kind whatever the time.
	var plain, traced []roundResult
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; ; i++ {
		elapsed := time.Since(start)
		if i > 0 && elapsed+elapsed/time.Duration(2*i) > budget && !(cfg.trace && len(traced) == 0) {
			break
		}
		stall.Reset(stallLimit)
		rt := tr
		if i%2 == 0 {
			rt = nil
		}
		sp := rt.begin("round", open{})
		before := snapProc()
		res, err := w.round(rt, sp)
		res.proc = before.until(snapProc())
		sp.end()
		if err != nil {
			return report{}, fmt.Errorf("round %d: %w", i, err)
		}
		rep.Attempted += res.ops
		rep.Failed += res.failed
		if rt != nil {
			traced = append(traced, res)
		} else {
			plain = append(plain, res)
		}
	}
	stall.Reset(stallLimit)
	rep.Correct = rep.Failed == 0
	e2e := endToEndMetrics(setups, plain)
	if !cfg.trace {
		for _, s := range endToEnd {
			rep.Metrics[s.Name] = metricValue{e2e[s.Name], s.Unit}
		}
		return rep, nil
	}
	m := metrics{}
	m["bench.trace_overhead_ratio"] = steadyOf(traced, roundResult.opsPerSec) / e2e["ops_per_s"]
	processLayers(m, traced)
	if err := w.layers(m, cfg.seed, traced, tr); err != nil {
		return report{}, fmt.Errorf("per-layer probes: %w", err)
	}
	for _, s := range perLayer {
		rep.Metrics[s.Name] = metricValue{m[s.Name], s.Unit}
	}
	if err := tr.write(cfg.outDir); err != nil {
		return report{}, fmt.Errorf("writing the trace: %w", err)
	}
	return rep, nil
}

func medianOf(rs []roundResult, f func(roundResult) float64) float64 {
	vs := make([]float64, len(rs))
	for i, r := range rs {
		vs[i] = f(r)
	}
	return median(vs)
}

// steadyOf is the 10%-trimmed mean over rounds of f. This host's clock
// alternates between two speeds a quarter apart in phases of seconds
// (README.md, "Noise"), so a run's rounds are a mixture of two modes: the
// median of such a mixture jumps from one mode to the other as the mix
// passes one half, while the mean moves in proportion, and the trimming
// still discards a round that a hiccup hit.
func steadyOf(rs []roundResult, f func(roundResult) float64) float64 {
	vs := make([]float64, len(rs))
	for i, r := range rs {
		vs[i] = f(r)
	}
	return trimmedMean(vs, 0.10)
}

// endToEndMetrics reduces the untraced rounds to the five end-to-end
// metrics; the latencies are each round's own percentile.
func endToEndMetrics(setups []float64, rounds []roundResult) metrics {
	return metrics{
		"setup_s":       median(setups),
		"ops_per_s":     steadyOf(rounds, roundResult.opsPerSec),
		"cpu_us_per_op": steadyOf(rounds, roundResult.cpuUsPerOp),
		"op_p50_us":     steadyOf(rounds, func(r roundResult) float64 { return percentile(r.lat, 50) }),
		"op_p99_us":     steadyOf(rounds, func(r roundResult) float64 { return percentile(r.lat, 99) }),
	}
}

// sum adds f over the rounds.
func sum(rs []roundResult, f func(roundResult) float64) float64 {
	t := 0.0
	for _, r := range rs {
		t += f(r)
	}
	return t
}

// ratio is a/b, 0 when b is 0 (an idle layer reads 0, not NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
