package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// jobTimeout bounds one launched world; a world still running after it
// is killed and counted as failed.
const jobTimeout = 60 * time.Second

// rankRun is one rank process's outcome.
type rankRun struct {
	code   int // exit code; -1 when killed
	cpu    time.Duration
	rssKiB int64
	log    bytes.Buffer // stdout and stderr
}

// worldRun is one launched world's outcome.
type worldRun struct {
	wall     time.Duration // first launch until every rank has exited
	ranks    []*rankRun
	timedOut bool
}

// ok reports whether every rank exited 0 in time.
func (w worldRun) ok() bool {
	if w.timedOut {
		return false
	}
	for _, r := range w.ranks {
		if r.code != 0 {
			return false
		}
	}
	return true
}

// cpu is the user+sys CPU time of all ranks.
func (w worldRun) cpu() time.Duration {
	var t time.Duration
	for _, r := range w.ranks {
		t += r.cpu
	}
	return t
}

// peakRSSMiB is the largest peak resident set over the ranks.
func (w worldRun) peakRSSMiB() float64 {
	var k int64
	for _, r := range w.ranks {
		k = max(k, r.rssKiB)
	}
	return float64(k) / 1024
}

// logs renders every rank's output for a failure report.
func (w worldRun) logs() string {
	var b strings.Builder
	for i, r := range w.ranks {
		fmt.Fprintf(&b, "--- rank %d (exit %d) ---\n%s", i, r.code, r.log.String())
	}
	if w.timedOut {
		b.WriteString("--- killed after the job timeout ---\n")
	}
	return b.String()
}

// Registry ports are handed out below Linux's ephemeral range (32768
// and up by default). A rank's data listener binds port 0 and so takes
// an ephemeral port; were the registry port ephemeral too, a rank could
// take it between the harness choosing it and rank 0 binding it, and
// the world would fail to form.
const (
	registryPortLo = 10000
	registryPortHi = 32768
)

// nextRegistryPort is the next candidate; it starts at a random point
// so that successive runs do not reuse the same ports.
var nextRegistryPort = registryPortLo + rand.IntN(registryPortHi-registryPortLo)

// freeRegistry returns a loopback address no listener holds right now,
// for a world's bootstrap registry. Each launch takes a fresh one.
func freeRegistry() (string, error) {
	for range registryPortHi - registryPortLo {
		port := nextRegistryPort
		nextRegistryPort++
		if nextRegistryPort == registryPortHi {
			nextRegistryPort = registryPortLo
		}
		addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(port))
		l, err := net.Listen("tcp", addr)
		if err != nil {
			continue // in use
		}
		return addr, l.Close()
	}
	return "", fmt.Errorf("no free loopback port in [%d, %d)", registryPortLo, registryPortHi)
}

// launch starts p rank processes of bin, each with GOMAXPROCS=1 and the
// arguments args returns for its rank and the world's fresh registry
// address, and waits for all of them. The wall time runs from the first
// start until the last rank has exited.
func launch(bin string, p int, args func(rank int, registry string) []string) (worldRun, error) {
	registry, err := freeRegistry()
	if err != nil {
		return worldRun{}, err
	}
	env := append(os.Environ(), "GOMAXPROCS=1")
	w := worldRun{ranks: make([]*rankRun, p)}
	cmds := make([]*exec.Cmd, p)
	start := time.Now()
	for r := range cmds {
		rr := &rankRun{code: -1}
		w.ranks[r] = rr
		cmd := exec.Command(bin, args(r, registry)...)
		cmd.Env = env
		cmd.Stdout = &rr.log
		cmd.Stderr = &rr.log
		// A rank must not outlive a harness that is killed mid-job.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			for _, c := range cmds[:r] {
				_ = c.Process.Kill() // already failing; the Wait below reaps it
				_ = c.Wait()
			}
			return w, fmt.Errorf("start rank %d: %w", r, err)
		}
		cmds[r] = cmd
	}
	killer := time.AfterFunc(jobTimeout, func() {
		for _, c := range cmds {
			_ = c.Process.Kill() // the rank may already have exited
		}
	})
	var werr error
	for r, cmd := range cmds {
		err := cmd.Wait()
		st := cmd.ProcessState
		if st == nil {
			// Not reaped; keep waiting for the other ranks regardless.
			werr = fmt.Errorf("wait rank %d: %w", r, err)
			continue
		}
		rr := w.ranks[r]
		rr.code = st.ExitCode()
		rr.cpu = st.UserTime() + st.SystemTime()
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			rr.rssKiB = ru.Maxrss
		}
	}
	w.wall = time.Since(start)
	w.timedOut = !killer.Stop()
	return w, werr
}
