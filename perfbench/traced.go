package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// Host speed-of-light references measured by the harness itself.
const (
	memmoveBytes = 256 << 20 // each of the two arrays
	diskBytes    = 128 << 20
	refReps      = 3
)

// runTraced is the per-layer run. The first half of cfg.seconds goes to
// the traced world (the benchmark's own rank processes, calling each
// layer with spans around it), the second to pairs of sdsnode jobs with
// and without -trace, for the tracing overhead. The host references
// are measured last, with no rank running.
func runTraced(cfg config) (result, error) {
	d, err := prepare(cfg)
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(d.root)
	var res result
	half := cfg.seconds / 2

	if err := os.MkdirAll(d.path("spans"), 0o755); err != nil {
		return result{}, err
	}
	spanFiles := make([]string, cfg.p)
	for r := range spanFiles {
		spanFiles[r] = d.path("spans", "rank."+strconv.Itoa(r)+".jsonl")
	}
	run, err := launch(filepath.Join(cfg.bin, "perfbench"), cfg.p, func(rank int, registry string) []string {
		return []string{"rank", "-rank", strconv.Itoa(rank), "-size", strconv.Itoa(cfg.p),
			"-registry", registry, "-workload", cfg.wl.name, "-in", d.in, "-dir", d.root,
			"-seconds", strconv.FormatFloat(half, 'f', -1, 64), "-spans", spanFiles[rank]}
	})
	if err != nil {
		return result{}, err
	}
	res.Attempted++
	if !run.ok() {
		return result{}, fmt.Errorf("traced world failed:\n%s", run.logs())
	}
	if _, err := checkShards(d.ref, d.outShards("out", cfg.p)); err != nil {
		return result{}, fmt.Errorf("traced world output: %w", err)
	}
	spans, err := readSpans(spanFiles)
	if err != nil {
		return result{}, err
	}
	res.Metrics = layerMetrics(spans)

	// Tracing overhead: sdsnode on the same input with and without
	// -trace, alternating which goes first.
	var plain, traced []float64
	deadline := time.Now().Add(time.Duration(half * float64(time.Second)))
	for pair := 0; pair == 0 || time.Now().Before(deadline); pair++ {
		for k := 0; k < 2; k++ {
			withTrace := (pair+k)%2 == 1
			var extra func(rank int) []string
			if withTrace {
				extra = func(rank int) []string {
					return []string{"-trace", d.path("spans", "sdsnode."+strconv.Itoa(rank)+".jsonl")}
				}
			}
			j, err := runJob(cfg, d, d.in, d.ref, extra)
			if err != nil {
				return result{}, err
			}
			res.Attempted++
			if j.cause != "" {
				res.Failed++
				continue
			}
			if withTrace {
				traced = append(traced, j.run.wall.Seconds())
			} else {
				plain = append(plain, j.run.wall.Seconds())
			}
		}
	}
	res.Correct = res.Failed == 0
	if len(plain) == 0 || len(traced) == 0 {
		return res, fmt.Errorf("%s: every tracing-overhead job failed on one side", cfg.wl.name)
	}
	res.Metrics["trace.overhead_ratio"] = metric{median(traced) / median(plain), "ratio"}

	mm := memmoveGBs()
	res.Metrics["ref.memmove_gbs"] = metric{mm, "GB/s"}
	dk, err := diskMBs(d.path("disk"))
	if err != nil {
		return result{}, err
	}
	res.Metrics["ref.disk_mbs"] = metric{dk, "MB/s"}
	fmt.Printf("%s: p=%d, %d traced iterations, %d+%d tracing-overhead jobs\n",
		cfg.wl.name, cfg.p, spans.iters, len(plain), len(traced))
	return res, nil
}

// memmoveGBs is the best of refReps copies between two memmoveBytes
// arrays, in GB/s of bytes copied.
func memmoveGBs() float64 {
	src := make([]byte, memmoveBytes)
	dst := make([]byte, memmoveBytes)
	for i := range src {
		src[i] = byte(i)
	}
	copy(dst, src) // fault the destination pages in before timing
	var best float64
	for i := 0; i < refReps; i++ {
		t := time.Now()
		copy(dst, src)
		best = max(best, memmoveBytes/1e9/time.Since(t).Seconds())
	}
	return best
}

// diskMBs is the best of refReps sequential writes of diskBytes into a
// new file in dir, closed but not synced — as the checkpoint and spill
// writers write — in MB/s.
func diskMBs(dir string) (float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	buf := make([]byte, 1<<20)
	var best float64
	for i := 0; i < refReps; i++ {
		path := filepath.Join(dir, "ref."+strconv.Itoa(i))
		t := time.Now()
		f, err := os.Create(path)
		if err != nil {
			return 0, err
		}
		for n := 0; n < diskBytes; n += len(buf) {
			if _, err := f.Write(buf); err != nil {
				f.Close()
				return 0, err
			}
		}
		if err := f.Close(); err != nil {
			return 0, err
		}
		best = max(best, diskBytes/1e6/time.Since(t).Seconds())
		if err := os.Remove(path); err != nil {
			return 0, err
		}
	}
	return best, nil
}
