// Command bench is the repository's tracked benchmark: five workloads
// over the real-UDP driver and the simulator, measured from outside.
// README.md in this directory says what it measures and how to read it;
// BENCHMARK.json at the repository root is its contract with the driver.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and print its metrics as one JSON line (default: every workload, repeated, as a table)")
		seed         = flag.Int64("seed", 1, "seed for payloads, identities, the RUBiS mix and the simulator")
		seconds      = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace        = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones (without -workload: adds one traced run per workload)")
		scaleName    = flag.String("scale", "full", "round sizes: full, or tiny for a smoke run")
		outDir       = flag.String("out", "bench/out", "directory for trace files and the -aa report")
		runs         = flag.Int("runs", 10, "runs per workload and set when no -workload is given")
		aa           = flag.Bool("aa", false, "run two sets on this binary, compare them against the bounds, exit 1 on a breach")
		asJSON       = flag.Bool("json", false, "print the summary of all workloads as JSON")
		spec         = flag.Bool("spec", false, "print BENCHMARK.json as the tables in spec.go define it")
	)
	flag.Parse()
	if *spec {
		os.Stdout.Write(benchmarkJSON())
		return
	}
	sc, ok := map[string]scale{"full": fullScale, "tiny": tinyScale}[*scaleName]
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown -scale %q\n", *scaleName)
		os.Exit(2)
	}
	if *workloadName == "" {
		os.Exit(runAll(allConfig{
			seed: *seed, seconds: *seconds, scale: *scaleName, outDir: *outDir,
			runs: *runs, trace: *trace != 0, aa: *aa, asJSON: *asJSON,
		}))
	}
	rep, err := run(runConfig{
		workload: *workloadName, seed: *seed, seconds: *seconds,
		trace: *trace != 0, scale: sc, outDir: *outDir,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *workloadName, err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}
