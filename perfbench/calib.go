package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"time"
)

// calibKeys is the size of the calibration sort.
const calibKeys = 1 << 20

// calibMain is the "calib" subcommand: it times one single-core
// slices.Sort of calibKeys pseudo-random float64 keys, the same keys on
// every call, and prints its wall and CPU seconds. The work never
// changes with the program, so dividing a job's times by it cancels the
// host's own speed, which on a shared machine drifts by tens of percent
// over minutes.
func calibMain() int {
	rng := rand.New(rand.NewPCG(1, 2))
	keys := make([]float64, calibKeys)
	for i := range keys {
		keys[i] = rng.Float64()
	}
	cpu0, err := cpuSelf()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench calib: %v\n", err)
		return 1
	}
	t := time.Now()
	slices.Sort(keys)
	wall := time.Since(t)
	cpu1, err := cpuSelf()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench calib: %v\n", err)
		return 1
	}
	fmt.Println(wall.Seconds(), (cpu1 - cpu0).Seconds())
	return 0
}

// cpuSelf is this process's user+sys CPU time so far.
func cpuSelf() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// calibration is the calibration sort's mean wall and CPU seconds over
// the cores.
type calibration struct{ wall, cpu float64 }

// calibrate runs the calibration sort on every core at once, as the
// world's ranks run.
func calibrate(cfg config) (calibration, error) {
	run, err := launch(filepath.Join(cfg.bin, "perfbench"), cfg.p, func(int, string) []string {
		return []string{"calib"}
	})
	if err != nil {
		return calibration{}, err
	}
	if !run.ok() {
		return calibration{}, fmt.Errorf("calibration failed:\n%s", run.logs())
	}
	var c calibration
	for _, r := range run.ranks {
		var wall, cpu float64
		if _, err := fmt.Sscan(r.log.String(), &wall, &cpu); err != nil {
			return calibration{}, fmt.Errorf("calibration output %q: %w", r.log.String(), err)
		}
		c.wall += wall / float64(cfg.p)
		c.cpu += cpu / float64(cfg.p)
	}
	return c, nil
}
