package main

// Child processes. Every synts process the benchmark starts is registered
// here so that every exit path — a normal return, an error, a panic on the
// main goroutine, SIGINT or SIGTERM — stops it with SIGINT, then SIGKILL
// after a grace period, and waits for it. Pdeathsig is the backstop for
// the one path no code runs on: the benchmark itself being SIGKILLed.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procs is the GOMAXPROCS every process of a run uses, the benchmark
// included: pinned so results compare across machines with more CPUs.
const procs = 2

// stopGrace is how long a child gets to exit after SIGINT. Daemons run
// with -drain-timeout 5s, so a clean drain always fits.
const stopGrace = 6 * time.Second

type child struct {
	name  string
	log   string
	cmd   *exec.Cmd
	start time.Time     // just before exec
	done  chan struct{} // closed once the process has been waited for
}

var children struct {
	sync.Mutex
	live    []*child
	closing bool // set by shutdown: no new children may start
}

// spawn starts bin with args. The child's stderr, and its stdout unless
// stdout is given, go to <logDir>/<name>.log.
func spawn(logDir, name string, stdout *os.File, bin string, args ...string) (*child, error) {
	children.Lock()
	defer children.Unlock()
	if children.closing {
		return nil, errors.New("bench: shutting down")
	}
	logPath := filepath.Join(logDir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stdout, cmd.Stderr = logf, logf
	if stdout != nil {
		cmd.Stdout = stdout
	}
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c := &child{name: name, log: logPath, cmd: cmd, done: make(chan struct{})}
	c.start = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		cmd.Wait() // the exit status is read from cmd.ProcessState by the owner
		logf.Close()
		close(c.done)
	}()
	children.live = append(children.live, c)
	return c, nil
}

// exited reports whether the child has exited and been waited for.
func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// stop sends SIGINT, waits up to stopGrace, then SIGKILLs, and always
// waits for the process before returning.
func (c *child) stop() {
	if !c.exited() {
		c.cmd.Process.Signal(os.Interrupt)
		t := time.NewTimer(stopGrace)
		select {
		case <-c.done:
		case <-t.C:
			c.cmd.Process.Kill()
			<-c.done
		}
		t.Stop()
	}
	children.Lock()
	defer children.Unlock()
	for i, l := range children.live {
		if l == c {
			children.live = append(children.live[:i], children.live[i+1:]...)
			break
		}
	}
}

// shutdown stops every live child, newest first (the router before its
// daemons), and refuses new ones. Safe to call from several goroutines.
func shutdown() {
	children.Lock()
	children.closing = true
	live := append([]*child(nil), children.live...)
	children.Unlock()
	for i := len(live) - 1; i >= 0; i-- {
		live[i].stop()
	}
}

// freeAddr picks a free loopback port by binding 127.0.0.1:0.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// probeClient polls readiness without keeping connections to processes
// that are about to be stopped.
var probeClient = &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

// waitReady polls base/readyz until it answers 200 with a body containing
// want. It fails as soon as the child exits, or after 20 s.
func waitReady(c *child, base, want string) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := probeClient.Get(base + "/readyz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && strings.Contains(string(body), want) {
				return nil
			}
		}
		if c.exited() {
			return fmt.Errorf("%s exited before it was ready; see %s", c.name, c.log)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 20s; see %s", c.name, c.log)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// procCPU returns the CPU time a live process's threads have run, in ns
// from each thread's schedstat rather than in the 10 ms ticks of
// /proc/<pid>/stat: a measured window holds only a few hundred ms of CPU.
// Go processes do not end threads, so no run time is lost to exited ones.
func procCPU(pid int) (time.Duration, error) {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("/proc/%d/task/%s/schedstat: empty", pid, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/task/%s/schedstat: %w", pid, t.Name(), err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// procRSS returns a live process's resident set size (VmRSS) in bytes.
func procRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: %w", pid, err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmRSS", pid)
}

// rssSampler samples the summed resident set of some processes every
// rssEvery until stopped. Its mean is the time-averaged footprint: a Go
// heap's peak grows in whole GC-goal steps, so whether a run ends just
// before or just after a step swings a peak reading by tens of percent.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	sum  float64
	n    int
}

const rssEvery = 20 * time.Millisecond

func sampleRSS(pids ...int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			var total int64
			ok := true
			for _, pid := range pids {
				b, err := procRSS(pid)
				ok = ok && err == nil // a process that has exited ends the samples
				total += b
			}
			if ok {
				s.sum += float64(total)
				s.n++
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// mean stops the sampler and returns the mean sampled RSS in bytes (0 if
// no sample was taken).
func (s *rssSampler) mean() float64 {
	close(s.stop)
	<-s.done
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}
