// Command benchab runs the pair protocol for BENCHMARK.json's benchmark:
// it builds two revisions of the repository, runs one workload on each in
// alternating pairs, and prints one JSON document with both sides'
// medians and quartiles, pairs won, the change/base ratio, the failed-op
// share per side and a verdict per metric, and beside the verdict the
// median per-pair log(head/base) with its 95 % sign-test interval.
//
//	go run ./cmd/benchab -base HEAD -workload udp_bulk_ctr -pairs 10 -seeds 31,32,33
//
// The base (and -head, when given) is checked out with `git worktree`
// under .bench_build/benchab/ and removed afterwards; without -head the
// change side is the working tree as it stands. Each run is that tree's
// own `sh bench/run.sh --workload W --seed N --seconds S`, so each side is
// built from its own source, and its last output line is the run's JSON.
// Pair i runs both sides on seed i of -seeds, base first in even pairs
// and change first in odd ones. -aa runs the base against itself, which
// gives the noise band. -trace compares the per-layer metrics of
// `--trace 1` runs instead of the end-to-end ones.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// spec is what benchab reads of BENCHMARK.json.
type spec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct{ Name string }
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runReport is the JSON line one bench/run.sh run prints last.
type runReport struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// tree is one side: a revision and the directory it is checked out in.
type tree struct {
	Rev    string `json:"rev"`
	Commit string `json:"commit"`
	Dirty  bool   `json:"dirty,omitempty"`
	dir    string
	reps   []runReport
}

type host struct {
	CPU    string `json:"cpu"`
	NProc  int    `json:"nproc"`
	Kernel string `json:"kernel"`
	Go     string `json:"go"`
}

type metricResult struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better"`
	Bound   float64 `json:"bound,omitempty"`
	Base    side    `json:"base"`
	Head    side    `json:"head"`
	Won     int     `json:"won"`
	Lost    int     `json:"lost"`
	Ratio   float64 `json:"ratio"`
	Verdict string  `json:"verdict"`
	// Paired is the per-pair log(head/base) effect with its 95 % sign-test
	// interval, reported beside the verdict; the verdict does not read it.
	Paired *paired `json:"paired,omitempty"`
}

type document struct {
	Workload    string             `json:"workload"`
	Base        tree               `json:"base"`
	Head        tree               `json:"head"`
	AA          bool               `json:"aa,omitempty"`
	Trace       bool               `json:"trace,omitempty"`
	Pairs       int                `json:"pairs"`
	Seconds     float64            `json:"seconds"`
	Seeds       []int64            `json:"seeds"`
	Host        host               `json:"host"`
	FailedShare map[string]float64 `json:"failed_share"`
	Metrics     []metricResult     `json:"metrics"`
}

func main() {
	var (
		baseRev  = flag.String("base", "", "revision of the base side (required)")
		headRev  = flag.String("head", "", "revision of the change side (default: the working tree)")
		workload = flag.String("workload", "", "BENCHMARK.json workload to run (required)")
		pairs    = flag.Int("pairs", 10, "pairs of runs")
		seconds  = flag.Float64("seconds", 0, "seconds per run (default: BENCHMARK.json's run_seconds)")
		seedList = flag.String("seeds", "", "comma-separated seeds, pair i takes the i-th modulo their count (default: 1 to -pairs)")
		aa       = flag.Bool("aa", false, "run the base against itself")
		trace    = flag.Bool("trace", false, "compare the per-layer metrics of --trace 1 runs")
	)
	flag.Parse()
	if *baseRev == "" || *workload == "" || *pairs < 1 || (*aa && *headRev != "") {
		fmt.Fprintln(os.Stderr, "usage: benchab -base REV [-head REV | -aa] -workload W [-pairs N] [-seconds S] [-seeds a,b,...] [-trace]")
		os.Exit(2)
	}
	doc, err := compare(*baseRev, *headRev, *workload, *pairs, *seconds, *seedList, *aa, *trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchab: %v\n", err)
		os.Exit(1)
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchab: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", out)
}

func compare(baseRev, headRev, workload string, pairs int, seconds float64, seedList string, aa, trace bool) (*document, error) {
	root, err := git("", "rev-parse", "--show-toplevel")
	if err != nil {
		return nil, err
	}
	sp, err := readSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	if !sp.hasWorkload(workload) {
		return nil, fmt.Errorf("BENCHMARK.json has no workload %q", workload)
	}
	if seconds <= 0 {
		seconds = sp.RunSeconds
	}
	seeds, err := parseSeeds(seedList, pairs)
	if err != nil {
		return nil, err
	}
	work := filepath.Join(root, ".bench_build", "benchab")
	base, err := checkout(root, filepath.Join(work, "base"), baseRev)
	if err != nil {
		return nil, err
	}
	defer removeWorktree(root, base.dir)
	head := &tree{Rev: "worktree", dir: root}
	switch {
	case aa:
		head = &tree{Rev: base.Rev, Commit: base.Commit, dir: base.dir}
	case headRev != "":
		if head, err = checkout(root, filepath.Join(work, "head"), headRev); err != nil {
			return nil, err
		}
		defer removeWorktree(root, head.dir)
	default:
		if head.Commit, err = git(root, "rev-parse", "HEAD"); err != nil {
			return nil, err
		}
		status, err := git(root, "status", "--porcelain")
		if err != nil {
			return nil, err
		}
		head.Dirty = status != ""
	}

	args := []string{"bench/run.sh", "--workload", workload,
		"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--out", filepath.Join(work, "out")}
	if trace {
		args = append(args, "--trace", "1")
	} else {
		args = append(args, "--trace", "0")
	}
	for i := 0; i < pairs; i++ {
		order := []*tree{base, head}
		if i%2 == 1 {
			order[0], order[1] = head, base
		}
		for _, t := range order {
			name := "base"
			if t == head {
				name = "head"
			}
			fmt.Fprintf(os.Stderr, "benchab: pair %d/%d, %s, seed %d\n", i+1, pairs, name, seeds[i])
			rep, err := runOnce(t.dir, append(args, "--seed", strconv.FormatInt(seeds[i], 10)))
			if err != nil {
				return nil, fmt.Errorf("pair %d, %s (%s): %w", i+1, name, t.Rev, err)
			}
			t.reps = append(t.reps, rep)
		}
	}

	specs := sp.EndToEnd
	if trace {
		specs = sp.PerLayer
	}
	doc := &document{
		Workload: workload, Base: *base, Head: *head, AA: aa, Trace: trace,
		Pairs: pairs, Seconds: seconds, Seeds: seeds[:pairs], Host: fingerprint(),
		FailedShare: map[string]float64{"base": failedShare(base.reps), "head": failedShare(head.reps)},
	}
	for _, m := range specs {
		doc.Metrics = append(doc.Metrics, judge(m, values(base.reps, m.Name), values(head.reps, m.Name)))
	}
	return doc, nil
}

// judge compares one metric's runs, pair by pair (base[i] and head[i]
// ran on the same seed).
func judge(m metricSpec, base, head []float64) metricResult {
	r := metricResult{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound, Base: summarize(base), Head: summarize(head)}
	for i := range base {
		switch {
		case better(m.Better, head[i], base[i]):
			r.Won++
		case better(m.Better, base[i], head[i]):
			r.Lost++
		}
	}
	if r.Base.Median != 0 {
		r.Ratio = r.Head.Median / r.Base.Median
	}
	r.Verdict = verdict(m.Better, m.Bound, m.Name == "setup_s", r.Base, r.Head, r.Won, len(base))
	r.Paired = pairedEffect(base, head)
	return r
}

func values(reps []runReport, name string) []float64 {
	vs := make([]float64, len(reps))
	for i, r := range reps {
		vs[i] = r.Metrics[name].Value
	}
	return vs
}

func failedShare(reps []runReport) float64 {
	attempted, failed := 0, 0
	for _, r := range reps {
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func readSpec(path string) (spec, error) {
	var sp spec
	b, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

func (sp spec) hasWorkload(name string) bool {
	for _, w := range sp.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

func parseSeeds(list string, pairs int) ([]int64, error) {
	var seeds []int64
	if list == "" {
		for i := 1; i <= pairs; i++ {
			seeds = append(seeds, int64(i))
		}
		return seeds, nil
	}
	for _, f := range strings.Split(list, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-seeds: %w", err)
		}
		seeds = append(seeds, s)
	}
	for n := len(seeds); len(seeds) < pairs; {
		seeds = append(seeds, seeds[len(seeds)-n])
	}
	return seeds, nil
}

// checkout puts rev in a fresh detached worktree at dir, replacing
// whatever an interrupted run left there.
func checkout(root, dir, rev string) (*tree, error) {
	commit, err := git(root, "rev-parse", "--verify", rev+"^{commit}")
	if err != nil {
		return nil, err
	}
	removeWorktree(root, dir)
	if _, err := git(root, "worktree", "add", "--detach", dir, commit); err != nil {
		return nil, err
	}
	return &tree{Rev: rev, Commit: commit, dir: dir}, nil
}

func removeWorktree(root, dir string) {
	git(root, "worktree", "remove", "--force", dir) // absent on a first run
	os.RemoveAll(dir)
	git(root, "worktree", "prune")
}

func runOnce(dir string, args []string) (runReport, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command("sh", args...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return runReport{}, fmt.Errorf("%v: %s", err, tail(stderr.String()))
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep runReport
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return runReport{}, fmt.Errorf("last output line: %w", err)
	}
	return rep, nil
}

func git(dir string, args ...string) (string, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command("git", args...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, tail(stderr.String()))
	}
	return strings.TrimSpace(stdout.String()), nil
}

func tail(s string) string {
	s = strings.TrimSpace(s)
	if len(s) > 2000 {
		s = "..." + s[len(s)-2000:]
	}
	return s
}

// fingerprint names the box the pairs ran on: a ratio measured here is
// comparable with one measured elsewhere, an absolute value is not.
func fingerprint() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), Kernel: "unknown", Go: runtime.Version()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	// The sides are built by the go on PATH, which may not be the one
	// that built benchab.
	if out, err := exec.Command("go", "env", "GOVERSION").Output(); err == nil {
		h.Go = strings.TrimSpace(string(out))
	}
	return h
}
