// Command perfbench is Portus's end-to-end and per-layer benchmark. It
// runs one workload per invocation and prints, as the last line of its
// standard output, one JSON object with the workload's figures:
//
//	perfbench --workload tcp-full --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics, measured
// with the benchmark's own tracing off; with --trace 1 it carries the
// per-layer metrics from a traced phase, plus the tracing overhead.
// Every restore is verified and every check that fails makes the
// command exit nonzero. See README.md for the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(seed int64, seconds time.Duration, traced bool) (*report, error){
	"tcp-full":    func(s int64, d time.Duration, t bool) (*report, error) { return runTCP("tcp-full", tcpFull, s, d, t) },
	"tcp-delta":   func(s int64, d time.Duration, t bool) (*report, error) { return runTCP("tcp-delta", tcpDelta, s, d, t) },
	"sim-tenants": func(s int64, d time.Duration, t bool) (*report, error) { return runSim(simTenants, s, d, t) },
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: tcp-full, tcp-delta or sim-tenants")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "wall-clock seconds one measured phase lasts (at least)")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced phase instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %v, --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	// One process, at most one OS thread running Go code per core.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	rep, err := runner(*seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if rep.e2e["mem_peak_mib"], err = peakRSSMiB(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defs, vals := e2eDefs, rep.e2e
	if *trace == 1 {
		defs, vals = layerDefs, rep.layers
	}
	for _, f := range rep.failures {
		fmt.Fprintln(stderr, "perfbench: FAILED:", f)
	}
	metrics, err := collect(defs, vals)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	rep.print(stdout, *trace == 1)
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.correct(), rep.attempted, rep.failed, metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.correct() {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// peakRSSMiB is the process's peak resident set size so far.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("reading peak memory: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}
