// Command perfbench is the repository's end-to-end benchmark. It
// generates a workload's input from a seed, sorts it on a real
// multi-process sdsnode TCP world one job at a time (closed loop), times
// every job from outside, checks each output byte for byte against a
// reference sort, and prints the metrics as one JSON object on the last
// line of standard output.
//
// With -trace 0 it reports the end-to-end metrics (setup_s, job_s,
// cpu_s, peak_rss_mb, rdfa). With -trace 1 it instead forms the same
// world from its own rank processes (the "rank" subcommand), calls each
// layer's public function in the order core.Sort uses them with spans
// around every call, and reduces those spans to the per-layer metrics,
// next to speed-of-light references measured on the same host.
//
// It is normally run through run.sh, which builds everything first:
//
//	bash perfbench/run.sh --workload zipf-resident --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "rank":
			os.Exit(rankMain(os.Args[2:]))
		case "refsort":
			os.Exit(refSortMain(os.Args[2:]))
		case "calib":
			os.Exit(calibMain())
		}
	}
	os.Exit(harnessMain(os.Args[1:]))
}

// config is the harness's command line.
type config struct {
	wl      workload
	seed    int64
	seconds float64
	trace   bool
	bin     string // directory holding sdsnode, sdsgen and perfbench
	work    string // scratch directory for inputs and outputs
	p       int    // ranks in the world
}

func harnessMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		wlName  = fs.String("workload", "", "workload: "+workloadNames())
		seed    = fs.Int64("seed", 1, "seed of the generated input")
		seconds = fs.Float64("seconds", 10, "how long to measure")
		trc     = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced run")
		bin     = fs.String("bin", "", "directory holding the built sdsnode, sdsgen and perfbench binaries")
		work    = fs.String("work", "", "scratch directory")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := lookupWorkload(*wlName)
	if !ok || *bin == "" || *work == "" || *seconds <= 0 || (*trc != 0 && *trc != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -bin, -work, -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	cfg := config{
		wl: wl, seed: *seed, seconds: *seconds, trace: *trc == 1,
		bin: *bin, work: *work, p: worldSize(),
	}
	var (
		res result
		err error
	)
	if cfg.trace {
		res, err = runTraced(cfg)
	} else {
		res, err = runEndToEnd(cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	printSummary(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// worldSize is p: one rank per core, as in the paper's one-rank-per-core
// MPI model, and at least two so the sort is distributed.
func worldSize() int {
	return max(runtime.NumCPU(), 2)
}

// printSummary writes the metrics one per line, by name and unit,
// before the JSON line.
func printSummary(res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-24s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("%-24s %14.6g ratio (%d of %d failed)\n", "failed_frac",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
}
