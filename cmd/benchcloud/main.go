// Command benchcloud regenerates every table and figure of the paper's
// evaluation section inside the simulated testbed:
//
//	benchcloud -run fig2      Figure 2: RUBiS throughput vs concurrent clients
//	benchcloud -run rtt       §V-B: response times at 120 req/s
//	benchcloud -run fig3      Figure 3: iperf + RTT across connectivity modes
//	benchcloud -run private   Figure 2 workload on the OpenNebula profile
//	benchcloud -run bex       §IV-B: base-exchange and puzzle cost analysis
//	benchcloud -run dos       §IV-B: BEX flood, fixed vs adaptive puzzles
//	benchcloud -run chaos     fault schedule: request loss + recovery per scenario
//	benchcloud -run storm     control-plane overload: host evacuation under a
//	                          re-contact herd (-json emits BENCH_CONTROL.json)
//	benchcloud -run all       everything above
//
// Durations are virtual time; -short trims them for quick runs.
// -cpuprofile writes a pprof CPU profile covering the selected runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"hipcloud/internal/cloud"
	"hipcloud/internal/experiments"
	"hipcloud/internal/keymat"
)

func main() {
	run := flag.String("run", "all", "experiment: fig2|rtt|fig3|private|bex|dos|chaos|storm|all")
	short := flag.Bool("short", false, "shorter virtual durations")
	seed := flag.Int64("seed", 1, "simulation seed")
	jsonOut := flag.Bool("json", false, "storm: emit the BENCH_CONTROL.json document on stdout")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	modern := flag.Bool("modern", false, "fig3: negotiate the modern AEAD HIP_CIPHER set (keymat.PreferredAEAD) instead of the 2012 transforms")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	dur := 30 * time.Second
	if *short {
		dur = 8 * time.Second
	}

	want := func(name string) bool {
		return *run == "all" || strings.Contains(*run, name)
	}
	ran := false

	if want("fig2") {
		ran = true
		fmt.Println("running fig2 (this sweeps 3 scenarios x 8 client counts)...")
		_, tbl := experiments.RunFig2(experiments.Fig2Config{Duration: dur, Seed: *seed})
		fmt.Println(tbl)
	}
	if want("rtt") {
		ran = true
		_, tbl := experiments.RunResponseTimes(experiments.RTConfig{Duration: dur, Seed: *seed})
		fmt.Println(tbl)
	}
	if want("fig3") {
		ran = true
		var suites []keymat.Suite
		if *modern {
			suites = keymat.PreferredAEAD
		}
		_, tbl, err := experiments.RunFig3(experiments.Fig3Config{Seed: *seed, Suites: suites})
		if err != nil {
			fmt.Fprintln(os.Stderr, "fig3:", err)
			os.Exit(1)
		}
		fmt.Println(tbl)
	}
	if want("private") {
		ran = true
		fmt.Println("running private-cloud cross-check (OpenNebula profile)...")
		_, tbl := experiments.RunFig2(experiments.Fig2Config{
			Profile: cloud.OpenNebula, Duration: dur, Seed: *seed,
			Clients: []int{2, 6, 20, 50},
		})
		fmt.Println(tbl)
		_, rt := experiments.RunResponseTimes(experiments.RTConfig{Profile: cloud.OpenNebula, Duration: dur, Seed: *seed})
		fmt.Println(rt)
	}
	if want("dos") {
		ran = true
		fmt.Println("running DoS flood comparison (fixed vs adaptive puzzles)...")
		_, tbl, err := experiments.RunDoSTable(*seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dos:", err)
			os.Exit(1)
		}
		fmt.Println(tbl)
	}
	if want("bex") {
		ran = true
		_, tbl, err := experiments.RunBEXTable(*seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bex:", err)
			os.Exit(1)
		}
		fmt.Println(tbl)
		_, ptbl := experiments.RunPuzzleSweep(nil, 16, *seed)
		fmt.Println(ptbl)
	}
	if want("chaos") {
		ran = true
		chaosDur := 45 * time.Second
		if *short {
			chaosDur = 12 * time.Second
		}
		fmt.Println("running chaos fault schedule (3 scenarios)...")
		_, tbl := experiments.RunChaos(experiments.ChaosConfig{Duration: chaosDur, Seed: *seed})
		fmt.Println(tbl)
	}
	if want("storm") {
		ran = true
		runStormBench(*seed, *short, *jsonOut)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *run)
		flag.Usage()
		os.Exit(2)
	}
}
