package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// setupLaunches is how many empty-input worlds one run times for
// setup_s, after setupWarmup untimed ones; the median is reported.
const (
	setupWarmup   = 3
	setupLaunches = 21
)

// job is one sdsnode sort, launched and checked.
type job struct {
	run   worldRun
	rdfa  float64
	cause string // why the job failed; empty when it succeeded
}

// runJob sorts in on a fresh sdsnode world with the workload's flags
// (plus extra on every rank), then checks the output against the
// reference sort in file ref. The output, checkpoint and spill
// directories are emptied first and removed afterwards.
func runJob(cfg config, d jobDir, in, ref string, extra func(rank int) []string) (job, error) {
	for _, sub := range []string{"out", "ckpt", "spill"} {
		if err := os.RemoveAll(d.path(sub)); err != nil {
			return job{}, err
		}
		if err := os.MkdirAll(d.path(sub), 0o755); err != nil {
			return job{}, err
		}
	}
	defer os.RemoveAll(d.path("ckpt"))
	defer os.RemoveAll(d.path("spill"))
	shards := d.outShards("out", cfg.p)
	run, err := launch(filepath.Join(cfg.bin, "sdsnode"), cfg.p, func(rank int, registry string) []string {
		args := cfg.wl.sdsnodeArgs(rank, cfg.p, registry, in, shards[rank], d.path("ckpt"), d.path("spill"))
		if extra != nil {
			args = append(args, extra(rank)...)
		}
		return args
	})
	if err != nil {
		return job{}, err
	}
	j := job{run: run}
	switch {
	case run.timedOut:
		j.cause = "timed out"
	case !run.ok():
		j.cause = "a rank exited non-zero"
	default:
		sizes, err := checkShards(ref, shards)
		if err != nil {
			j.cause = err.Error()
		} else {
			j.rdfa = rdfa(sizes)
		}
	}
	if j.cause != "" {
		fmt.Fprintf(os.Stderr, "perfbench: %s job failed: %s\n%s", cfg.wl.name, j.cause, run.logs())
	}
	return j, os.RemoveAll(d.path("out"))
}

// runEndToEnd is the untraced run: set-up launches on an empty input,
// then jobs on the workload's input back to back for cfg.seconds.
func runEndToEnd(cfg config) (result, error) {
	d, err := prepare(cfg)
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(d.root)

	var res result
	setup := make([]float64, 0, setupLaunches)
	for i := 0; i < setupWarmup+setupLaunches; i++ {
		j, err := runJob(cfg, d, d.empty, d.empty, nil)
		if err != nil {
			return result{}, err
		}
		res.Attempted++
		if j.cause != "" {
			res.Failed++
			continue
		}
		if i >= setupWarmup {
			setup = append(setup, j.run.wall.Seconds())
		}
	}

	// Each job is followed by a calibration sort on every core. The
	// job's wall time over the calibration's, and its CPU time over the
	// calibration's, are the gated metrics.
	var jobS, cpuS, calib, jobNorm, cpuNorm, rss, balance []float64
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		j, err := runJob(cfg, d, d.in, d.ref, nil)
		if err != nil {
			return result{}, err
		}
		res.Attempted++
		if j.cause != "" {
			res.Failed++
			continue
		}
		c, err := calibrate(cfg)
		if err != nil {
			return result{}, err
		}
		jobS = append(jobS, j.run.wall.Seconds())
		cpuS = append(cpuS, j.run.cpu().Seconds())
		calib = append(calib, c.wall)
		jobNorm = append(jobNorm, j.run.wall.Seconds()/c.wall)
		cpuNorm = append(cpuNorm, j.run.cpu().Seconds()/c.cpu)
		rss = append(rss, j.run.peakRSSMiB())
		balance = append(balance, j.rdfa)
	}
	res.Correct = res.Failed == 0
	if len(setup) == 0 || len(jobS) == 0 {
		return res, fmt.Errorf("%s: %d of %d launches failed; no job succeeded", cfg.wl.name, res.Failed, res.Attempted)
	}
	fmt.Printf("%s: p=%d, %d set-up launches, %d jobs (job_s min %.4f max %.4f)\n",
		cfg.wl.name, cfg.p, len(setup), len(jobS), minOf(jobS), maxOf(jobS))
	fmt.Printf("%-24s %14.6g s\n%-24s %14.6g s\n%-24s %14.6g s\n",
		"job_s", median(jobS), "cpu_s", median(cpuS), "calib_s", median(calib))
	res.Metrics = map[string]metric{
		"setup_s":     {median(setup), "s"},
		"job_norm":    {median(jobNorm), "ratio"},
		"cpu_norm":    {median(cpuNorm), "ratio"},
		"peak_rss_mb": {maxOf(rss), "MiB"},
		"rdfa":        {median(balance), "ratio"},
	}
	return res, nil
}
