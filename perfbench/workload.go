package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// workload is one input the benchmark sorts, and how sdsnode runs it.
type workload struct {
	name    string
	kind    string // sdsgen -kind
	records int
	stable  bool  // sdsnode -stable
	ckpt    bool  // sdsnode -ckpt-dir: phase-boundary checkpoints
	mem     int64 // sdsnode -mem with -spill-dir: the streaming spill path
}

// workloads are the benchmark's inputs; BENCHMARK.json records why each
// exists.
var workloads = []workload{
	{name: "zipf-resident", kind: "zipf", records: 8_000_000},
	{name: "presorted-stable-ckpt", kind: "ksorted", records: 16_000_000, stable: true, ckpt: true},
	{name: "uniform-spill", kind: "uniform", records: 8_000_000, mem: 16 << 20},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, " | ")
}

func (w workload) spill() bool { return w.mem > 0 }

// jobDir is one run's scratch space: the input, the reference, output
// shards, checkpoint and spill directories and traces.
type jobDir struct {
	root  string
	in    string // the workload's input file
	empty string // an empty input, for set-up launches
	ref   string // the input sorted by the reference sort
}

func (d jobDir) path(parts ...string) string {
	return filepath.Join(append([]string{d.root}, parts...)...)
}

// outShards names the per-rank output shards under sub.
func (d jobDir) outShards(sub string, p int) []string {
	paths := make([]string, p)
	for r := range paths {
		paths[r] = d.path(sub, "shard."+strconv.Itoa(r))
	}
	return paths
}

// prepare generates the workload's input from the seed with sdsgen and
// computes the reference sort once, outside every timed region, in a
// process of its own.
func prepare(cfg config) (jobDir, error) {
	d := jobDir{root: filepath.Join(cfg.work, fmt.Sprintf("%s-s%d", cfg.wl.name, cfg.seed))}
	if err := os.RemoveAll(d.root); err != nil {
		return d, err
	}
	if err := os.MkdirAll(d.root, 0o755); err != nil {
		return d, err
	}
	d.in = d.path("in.f64")
	d.empty = d.path("empty.f64")
	if err := os.WriteFile(d.empty, nil, 0o644); err != nil {
		return d, err
	}
	args := []string{"-kind", cfg.wl.kind, "-n", strconv.Itoa(cfg.wl.records),
		"-seed", strconv.FormatInt(cfg.seed, 10), "-o", d.in}
	if cfg.wl.kind == "ksorted" {
		// One sorted block per rank: each rank's shard is one run.
		args = append(args, "-blocks", strconv.Itoa(cfg.p))
	}
	gen := exec.Command(filepath.Join(cfg.bin, "sdsgen"), args...)
	if out, err := gen.CombinedOutput(); err != nil {
		return d, fmt.Errorf("sdsgen %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	d.ref = d.path("ref.f64")
	sorter := exec.Command(filepath.Join(cfg.bin, "perfbench"), "refsort", d.in, d.ref)
	if out, err := sorter.CombinedOutput(); err != nil {
		return d, fmt.Errorf("reference sort: %v\n%s", err, out)
	}
	return d, nil
}

// sdsnodeArgs is one rank's command line for a job on input in, writing
// its shard to out, with the workload's flags; ckptDir and spillDir are
// used by the workloads that need them.
func (w workload) sdsnodeArgs(rank, p int, registry, in, out, ckptDir, spillDir string) []string {
	args := []string{
		"-rank", strconv.Itoa(rank), "-size", strconv.Itoa(p),
		"-registry", registry, "-in", in, "-out", out,
	}
	if w.stable {
		args = append(args, "-stable")
	}
	if w.ckpt {
		args = append(args, "-ckpt-dir", ckptDir)
	}
	if w.spill() {
		args = append(args, "-mem", strconv.FormatInt(w.mem, 10), "-spill-dir", spillDir)
	}
	return args
}
