package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"sdssort/internal/checkpoint"
	"sdssort/internal/codec"
	"sdssort/internal/recordio"
	"sdssort/internal/workload"
)

func TestMain(m *testing.M) {
	if os.Getenv("SDSNODE_CLI_CHILD") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestDistributedProcesses runs a real multi-process sort: each rank is
// its own OS process talking TCP, reading its shard of a shared input
// file and writing its sorted shard — the full cmd/sdsnode deployment
// story on one machine.
func TestDistributedProcesses(t *testing.T) {
	const p = 3
	dir := t.TempDir()
	in := filepath.Join(dir, "shared.f64")
	keys := workload.ZipfKeys(7, 9000, 1.4, workload.DefaultZipfUniverse)
	if err := recordio.WriteFile(in, codec.Float64{}, keys); err != nil {
		t.Fatal(err)
	}
	registry := freePort(t)

	cmds := make([]*exec.Cmd, p)
	outs := make([]string, p)
	for r := 0; r < p; r++ {
		outs[r] = filepath.Join(dir, fmt.Sprintf("out-%d.f64", r))
		cmd := exec.Command(os.Args[0],
			"-rank", fmt.Sprint(r), "-size", fmt.Sprint(p),
			"-registry", registry,
			"-in", in, "-out", outs[r])
		cmd.Env = append(os.Environ(), "SDSNODE_CLI_CHILD=1")
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		cmds[r] = cmd
	}
	for r, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			t.Fatalf("rank %d process failed: %v", r, err)
		}
	}

	// Concatenating shard outputs in rank order must reproduce the
	// sorted input.
	var flat []float64
	for r := 0; r < p; r++ {
		part, err := recordio.ReadFile(outs[r], codec.Float64{})
		if err != nil {
			t.Fatal(err)
		}
		flat = append(flat, part...)
	}
	want := append([]float64(nil), keys...)
	slices.Sort(want)
	if !slices.Equal(flat, want) {
		t.Fatal("multi-process output differs from the sorted input")
	}
}

func TestNodeBadFlags(t *testing.T) {
	run := func(args ...string) error {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "SDSNODE_CLI_CHILD=1")
		return cmd.Run()
	}
	if err := run("-rank", "5", "-size", "2"); err == nil {
		t.Fatal("rank out of range accepted")
	}
	if err := run("-rank", "0", "-size", "0"); err == nil {
		t.Fatal("zero size accepted")
	}
}

// child starts one sdsnode child process and returns the command. If
// the test fails, the child's stderr (its log) goes to the test log.
func child(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SDSNODE_CLI_CHILD=1")
	stderr := new(lockedBuffer)
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("child %q stderr:\n%s", args, stderr.String())
		}
	})
	return cmd
}

// lockedBuffer is a bytes.Buffer safe to read while a child's stderr
// copier may still be writing it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// exitOf waits for the child and returns its exit code.
func exitOf(cmd *exec.Cmd) int {
	err := cmd.Wait()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	return -1
}

// TestExitCodeContract pins the supervisor-facing exit codes: usage
// errors, local errors, deadline overruns and lost peers must each be
// distinguishable without parsing log output.
func TestExitCodeContract(t *testing.T) {
	t.Run("usage", func(t *testing.T) {
		cmd := child(t, "-rank", "5", "-size", "2")
		if code := exitOf(cmd); code != 2 {
			t.Fatalf("usage error exited %d, want 2", code)
		}
	})
	t.Run("local-error", func(t *testing.T) {
		// A single-rank world needs no peers, so the missing input file
		// is the only failure — a local error.
		cmd := child(t, "-rank", "0", "-size", "1",
			"-registry", freePort(t),
			"-in", filepath.Join(t.TempDir(), "does-not-exist.f64"))
		if code := exitOf(cmd); code != 1 {
			t.Fatalf("missing input exited %d, want 1", code)
		}
	})
	t.Run("deadline", func(t *testing.T) {
		// Rank 1 of 2 pointed at a registry nobody serves: bootstrap
		// would block until -timeout, but the job deadline fires first.
		cmd := child(t, "-rank", "1", "-size", "2",
			"-registry", freePort(t),
			"-timeout", "30s", "-job-deadline", "300ms")
		if code := exitOf(cmd); code != 4 {
			t.Fatalf("deadline overrun exited %d, want 4", code)
		}
	})
	t.Run("peer-lost", func(t *testing.T) {
		registry := freePort(t)
		dir := t.TempDir()
		in := filepath.Join(dir, "in.f64")
		if err := recordio.WriteFile(in, codec.Float64{}, workload.Uniform(1, 2000)); err != nil {
			t.Fatal(err)
		}
		// Rank 1 joins the world, then dies on a missing input file.
		// Rank 0's retry budget must classify that as a lost peer.
		r0 := child(t, "-rank", "0", "-size", "2", "-registry", registry,
			"-in", in,
			"-recv-timeout", "3s", "-retries", "3",
			"-retry-base", "1ms", "-retry-max", "10ms", "-gap-timeout", "500ms")
		r1 := child(t, "-rank", "1", "-size", "2", "-registry", registry,
			"-in", filepath.Join(dir, "does-not-exist.f64"))
		if code := exitOf(r1); code != 1 {
			t.Fatalf("dying rank exited %d, want 1", code)
		}
		if code := exitOf(r0); code != 3 {
			t.Fatalf("surviving rank exited %d, want 3", code)
		}
	})
}

// TestDistributedResume is the multi-process recovery story: a full
// checkpointed run, then a relaunch at epoch 1 that must resume from
// the final cut and reproduce the identical output.
func TestDistributedResume(t *testing.T) {
	const p = 2
	dir := t.TempDir()
	in := filepath.Join(dir, "shared.f64")
	keys := workload.ZipfKeys(11, 6000, 1.4, workload.DefaultZipfUniverse)
	if err := recordio.WriteFile(in, codec.Float64{}, keys); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "ckpt")

	launch := func(epoch int, outPrefix string) []string {
		t.Helper()
		registry := freePort(t)
		cmds := make([]*exec.Cmd, p)
		outs := make([]string, p)
		for r := 0; r < p; r++ {
			outs[r] = filepath.Join(dir, fmt.Sprintf("%s-%d.f64", outPrefix, r))
			cmds[r] = child(t,
				"-rank", fmt.Sprint(r), "-size", fmt.Sprint(p),
				"-registry", registry,
				"-in", in, "-out", outs[r],
				"-ckpt-dir", ckpt, "-epoch", fmt.Sprint(epoch))
		}
		for r, cmd := range cmds {
			if code := exitOf(cmd); code != 0 {
				t.Fatalf("epoch %d rank %d exited %d, want 0", epoch, r, code)
			}
		}
		return outs
	}

	first := launch(0, "first")
	resumed := launch(1, "resumed")
	for r := 0; r < p; r++ {
		a, err := recordio.ReadFile(first[r], codec.Float64{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := recordio.ReadFile(resumed[r], codec.Float64{})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a, b) {
			t.Fatalf("rank %d: resumed output differs from the original run", r)
		}
	}
	// And the resumed run really did come from a checkpoint, not a
	// re-sort: epoch 1 re-saved the cut under its own number.
	store, err := checkpoint.NewStore(ckpt, p)
	if err != nil {
		t.Fatal(err)
	}
	cut, ok := store.LatestConsistent()
	if !ok || cut.Epoch != 1 || cut.Phase != checkpoint.PhaseFinal {
		t.Fatalf("after resume the latest cut is %+v ok=%v, want final@1", cut, ok)
	}
}

// TestDistributedSpilledSort is the out-of-core deployment story: three
// real processes sort a shared file whose per-rank shard exceeds the
// per-process -mem budget, streaming through -spill-dir. The shard is
// never resident, the outputs concatenate to the sorted input, and the
// shared spill directory is left empty.
func TestDistributedSpilledSort(t *testing.T) {
	const p = 3
	dir := t.TempDir()
	in := filepath.Join(dir, "shared.f64")
	spill := filepath.Join(dir, "spill")
	if err := os.MkdirAll(spill, 0o755); err != nil {
		t.Fatal(err)
	}
	// 30000 × 8 B = 240 KB, 80 KB per rank — over the 64 KB budget.
	keys := workload.ZipfKeys(13, 30000, 1.3, workload.DefaultZipfUniverse)
	if err := recordio.WriteFile(in, codec.Float64{}, keys); err != nil {
		t.Fatal(err)
	}
	registry := freePort(t)

	var stderr [p]bytes.Buffer
	cmds := make([]*exec.Cmd, p)
	outs := make([]string, p)
	for r := 0; r < p; r++ {
		outs[r] = filepath.Join(dir, fmt.Sprintf("out-%d.f64", r))
		cmd := exec.Command(os.Args[0],
			"-rank", fmt.Sprint(r), "-size", fmt.Sprint(p),
			"-registry", registry,
			"-in", in, "-out", outs[r], "-stable",
			"-mem", "65536", "-spill-dir", spill)
		cmd.Env = append(os.Environ(), "SDSNODE_CLI_CHILD=1")
		cmd.Stderr = &stderr[r]
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		cmds[r] = cmd
	}
	for r, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			t.Fatalf("rank %d process failed: %v\n%s", r, err, stderr[r].String())
		}
	}
	for r := range stderr {
		if !strings.Contains(stderr[r].String(), "records spilled locally") {
			t.Fatalf("rank %d did not take the spilled path:\n%s", r, stderr[r].String())
		}
	}

	var flat []float64
	for r := 0; r < p; r++ {
		part, err := recordio.ReadFile(outs[r], codec.Float64{})
		if err != nil {
			t.Fatal(err)
		}
		flat = append(flat, part...)
	}
	want := append([]float64(nil), keys...)
	slices.Sort(want)
	if !slices.Equal(flat, want) {
		t.Fatal("spilled multi-process output differs from the sorted input")
	}
	ents, err := os.ReadDir(spill)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("shared spill dir not empty after the run: %v", ents)
	}
}
