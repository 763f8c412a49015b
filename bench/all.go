package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"hipcloud/internal/hipudp"
)

// Without -workload the harness is its own driver: it runs every
// workload cfg.runs times, each run a fresh process of this binary with
// its own seed, round-robin across workloads so that machine drift hits
// all alike, and reduces each end-to-end metric to a median with
// quartiles. With -aa it does that twice and holds the two sets against
// the bounds, the way the driver accepts a benchmark.

type allConfig struct {
	seed    int64
	seconds float64
	scale   string
	outDir  string
	runs    int
	trace   bool
	aa      bool
	asJSON  bool
}

// environment is recorded with every summary: numbers from two machines
// or two toolchains are not comparable.
type environment struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	VectoredIO bool   `json:"hipudp_vectored_io"`
	Path       string `json:"network_path"`
}

func readEnvironment() environment {
	env := environment{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		VectoredIO: hipudp.VectoredIO(),
		Path:       "host loopback (127.0.0.1), never a real link",
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		env.Kernel = string(b)
	}
	return env
}

// summary is one end-to-end metric on one workload over a set of runs.
type summary struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Spread float64   `json:"spread"` // (q3-q1)/median, what the driver holds against the bound
	Values []float64 `json:"values"`
}

func summarize(spec metricSpec, vs []float64) summary {
	s := summary{Unit: spec.Unit, Better: spec.Better, Bound: spec.Bound, N: len(vs), Values: vs}
	if len(vs) == 0 {
		return s
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.Median = median(vs)
	s.Q1, s.Q3 = quartiles(vs)
	s.Spread = spread(vs)
	return s
}

// set is one full pass: per workload, per end-to-end metric, a summary;
// and how many operations were attempted and failed.
type set struct {
	Metrics   map[string]map[string]summary `json:"workloads"`
	Attempted int                           `json:"attempted"`
	Failed    int                           `json:"failed"`
}

// child runs this binary once in contract mode and parses its last line.
func child(cfg allConfig, workload string, seed int64, trace bool) (report, error) {
	self, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(self,
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", t,
		"--scale", cfg.scale, "--out", cfg.outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return report{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return report{}, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	return rep, nil
}

func runSet(cfg allConfig, firstSeed int64, label string) (set, error) {
	values := map[string]map[string][]float64{}
	s := set{Metrics: map[string]map[string]summary{}}
	for i := 0; i < cfg.runs; i++ {
		for _, w := range workloadSpecs {
			fmt.Fprintf(os.Stderr, "%s run %d/%d %s\n", label, i+1, cfg.runs, w.Name)
			rep, err := child(cfg, w.Name, firstSeed+int64(i), false)
			if err != nil {
				return s, err
			}
			s.Attempted += rep.Attempted
			s.Failed += rep.Failed
			if values[w.Name] == nil {
				values[w.Name] = map[string][]float64{}
			}
			for name, v := range rep.Metrics {
				values[w.Name][name] = append(values[w.Name][name], v.Value)
			}
		}
	}
	for _, w := range workloadSpecs {
		s.Metrics[w.Name] = map[string]summary{}
		for _, spec := range endToEnd {
			s.Metrics[w.Name][spec.Name] = summarize(spec, values[w.Name][spec.Name])
		}
	}
	return s, nil
}

func (s set) print() {
	fmt.Printf("%-13s %-14s %-5s %12s %12s %12s %12s %12s %3s %7s %6s\n",
		"workload", "metric", "unit", "median", "q1", "q3", "min", "max", "n", "spread", "bound")
	for _, w := range workloadSpecs {
		for _, spec := range endToEnd {
			m := s.Metrics[w.Name][spec.Name]
			fmt.Printf("%-13s %-14s %-5s %12.4f %12.4f %12.4f %12.4f %12.4f %3d %6.1f%% %5.0f%%\n",
				w.Name, spec.Name, m.Unit, m.Median, m.Q1, m.Q3, m.Min, m.Max, m.N, 100*m.Spread, 100*m.Bound)
		}
	}
	fmt.Printf("fail_ratio %d/%d = %g\n", s.Failed, s.Attempted, ratio(float64(s.Failed), float64(s.Attempted)))
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction (negative when b is better).
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == hi {
		return (a - b) / a
	}
	return (b - a) / a
}

// aaRow is one metric on one workload across the two sets.
type aaRow struct {
	Workload  string  `json:"workload"`
	Metric    string  `json:"metric"`
	Bound     float64 `json:"bound"`
	MedianA   float64 `json:"median_a"`
	MedianB   float64 `json:"median_b"`
	Worsening float64 `json:"worsening"`
	SpreadA   float64 `json:"spread_a"`
	SpreadB   float64 `json:"spread_b"`
	Breach    string  `json:"breach,omitempty"`
}

// compareSets applies the driver's acceptance rule: every spread except
// setup_s's within the bound, and no median worse than the other set's
// by more than the bound.
func compareSets(a, b set) (rows []aaRow, breaches int) {
	for _, w := range workloadSpecs {
		for _, spec := range endToEnd {
			ma, mb := a.Metrics[w.Name][spec.Name], b.Metrics[w.Name][spec.Name]
			r := aaRow{
				Workload: w.Name, Metric: spec.Name, Bound: spec.Bound,
				MedianA: ma.Median, MedianB: mb.Median, SpreadA: ma.Spread, SpreadB: mb.Spread,
				Worsening: worsening(spec.Better, ma.Median, mb.Median),
			}
			var why []string
			if r.Worsening > spec.Bound {
				why = append(why, "second median worse than the first beyond the bound")
			}
			if spec.Name != "setup_s" && (ma.Spread > spec.Bound || mb.Spread > spec.Bound) {
				why = append(why, "spread beyond the bound")
			}
			if len(why) > 0 {
				r.Breach = strings.Join(why, "; ")
				breaches++
			}
			rows = append(rows, r)
		}
	}
	return rows, breaches
}

func runAll(cfg allConfig) int {
	env := readEnvironment()
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	a, err := runSet(cfg, cfg.seed, "set A")
	if err != nil {
		return fail(err)
	}
	doc := map[string]any{"environment": env, "set_a": a}
	failed := a.Failed
	code := 0
	var rows []aaRow
	if cfg.aa {
		// The second set takes the seeds after the first's, as a second
		// pass of the driver would.
		b, err := runSet(cfg, cfg.seed+int64(cfg.runs), "set B")
		if err != nil {
			return fail(err)
		}
		failed += b.Failed
		var breaches int
		rows, breaches = compareSets(a, b)
		doc["set_b"], doc["aa"] = b, rows
		if breaches > 0 {
			code = 1
		}
	}
	layers := map[string]map[string]metricValue{}
	if cfg.trace {
		for _, w := range workloadSpecs {
			fmt.Fprintf(os.Stderr, "traced run %s\n", w.Name)
			rep, err := child(cfg, w.Name, cfg.seed, true)
			if err != nil {
				return fail(err)
			}
			failed += rep.Failed
			layers[w.Name] = rep.Metrics
		}
		doc["per_layer"] = layers
	}
	if failed > 0 {
		code = 1
	}

	if cfg.aa || cfg.asJSON {
		b, err := json.MarshalIndent(doc, "", " ")
		if err != nil {
			return fail(err)
		}
		if cfg.aa {
			if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
				return fail(err)
			}
			if err := os.WriteFile(filepath.Join(cfg.outDir, "aa.json"), append(b, '\n'), 0o644); err != nil {
				return fail(err)
			}
		}
		if cfg.asJSON {
			fmt.Printf("%s\n", b)
			return code
		}
	}

	fmt.Printf("%s, %d CPUs, GOMAXPROCS %d, Linux %s, vectored I/O %v; traffic crosses the %s\n",
		env.GoVersion, env.NumCPU, env.GOMAXPROCS, env.Kernel, env.VectoredIO, env.Path)
	a.print()
	if cfg.aa {
		fmt.Printf("\nA/A: two sets of %d runs on the same binary\n", cfg.runs)
		fmt.Printf("%-13s %-14s %12s %12s %9s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "worsening", "spread A", "spread B", "bound")
		for _, r := range rows {
			fmt.Printf("%-13s %-14s %12.4f %12.4f %8.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				r.Workload, r.Metric, r.MedianA, r.MedianB, 100*r.Worsening, 100*r.SpreadA, 100*r.SpreadB, 100*r.Bound, r.Breach)
		}
	}
	if cfg.trace {
		fmt.Printf("\nper-layer metrics, one traced run per workload (0 = the layer is idle there)\n")
		fmt.Printf("%-42s %-7s", "metric", "unit")
		for _, w := range workloadSpecs {
			fmt.Printf(" %14s", w.Name)
		}
		fmt.Println()
		for _, spec := range perLayer {
			fmt.Printf("%-42s %-7s", spec.Name, spec.Unit)
			for _, w := range workloadSpecs {
				fmt.Printf(" %14.4f", layers[w.Name][spec.Name].Value)
			}
			fmt.Println()
		}
		fmt.Printf("spans: %s/trace-<workload>.json\n", cfg.outDir)
	}
	return code
}
