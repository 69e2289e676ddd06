package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// pinnedHashes holds the sha256 of `synts -size 2 all` stdout for the
// seeds whose output was checked by hand: the default seed and a hold-out.
//
//go:embed golden/batch-paper.sha256
var pinnedHashes string

// pins parses pinnedHashes: "<seed> <hex sha256>" per line, # comments.
func pins() (map[int64]string, error) {
	out := make(map[int64]string)
	sc := bufio.NewScanner(strings.NewReader(pinnedHashes))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 || len(f[1]) != 64 {
			return nil, fmt.Errorf("golden/batch-paper.sha256: bad line %q", line)
		}
		seed, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("golden/batch-paper.sha256: %w", err)
		}
		out[seed] = f[1]
	}
	return out, sc.Err()
}

// batchArgs runs the paper's whole evaluation at the canonical size.
func batchArgs(seed int64, jobs int) []string {
	return []string{"-size", "2", "-j", strconv.Itoa(jobs), "-seed", strconv.FormatInt(seed, 10), "all"}
}

// batchRun is one `synts all` process as the benchmark saw it.
type batchRun struct {
	wall  time.Duration // exec to exit
	setup time.Duration // exec to the first byte on stdout
	cpu   time.Duration // user+sys from the child's rusage
	rss   float64       // time-averaged resident set, bytes
	sum   string        // hex sha256 of stdout
	err   error
}

// runSynts runs synts once with args, hashing its stdout as it streams.
func runSynts(env *env, name string, args []string) batchRun {
	r, w, err := os.Pipe()
	if err != nil {
		return batchRun{err: err}
	}
	c, err := spawn(env.logDir, name, w, env.synts, args...)
	w.Close() // the child holds its own copy; EOF arrives when it exits
	if err != nil {
		r.Close()
		return batchRun{err: err}
	}
	defer c.stop()
	rss := sampleRSS(c.cmd.Process.Pid)
	var run batchRun
	h := sha256.New()
	buf := make([]byte, 64<<10)
	for {
		n, rerr := r.Read(buf)
		if n > 0 {
			if run.setup == 0 {
				run.setup = time.Since(c.start)
			}
			h.Write(buf[:n])
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			run.err = rerr
			break
		}
	}
	r.Close()
	<-c.done
	run.wall = time.Since(c.start)
	run.rss = rss.mean()
	run.sum = hex.EncodeToString(h.Sum(nil))
	st := c.cmd.ProcessState
	if run.err == nil && !st.Success() {
		run.err = fmt.Errorf("%s: %s; see %s", name, st, c.log)
	}
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		run.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return run
}

// runBatch is the batch-paper workload: one untimed warm-up run of
// `synts -size 2 -j 2 all`, then fresh timed runs (at least three) for as
// long as another one fits in the run time, warm-up included. Every run's
// stdout must hash to the pin for the seed, or for an unpinned seed to the
// warm-up run's hash.
func runBatch(env *env, seed int64, seconds int, m metrics) (counts, error) {
	pinned, err := pins()
	if err != nil {
		return counts{}, err
	}
	args := batchArgs(seed, procs)
	end := time.Now().Add(time.Duration(seconds) * time.Second)
	warm := runSynts(env, "synts-all-warmup", args)
	var runs []batchRun
	for last := warm.wall; len(runs) < 3 || time.Now().Add(last).Before(end); {
		runs = append(runs, runSynts(env, fmt.Sprintf("synts-all-%d", len(runs)), args))
		last = runs[len(runs)-1].wall
	}

	want, ok := pinned[seed]
	if ok {
		fmt.Fprintf(env.log, "batch-paper: seed %d pinned to %s…\n", seed, want[:8])
	} else {
		want = warm.sum
		fmt.Fprintf(env.log, "batch-paper: seed %d unpinned: checking that runs match each other\n", seed)
	}
	c := counts{Attempted: 1 + len(runs)}
	var walls, setups, cpus, rss []float64
	for i, r := range append([]batchRun{warm}, runs...) {
		switch {
		case r.err != nil:
			c.Errors++
			fmt.Fprintf(env.log, "batch-paper: run %d failed: %v\n", i, r.err)
		case r.sum != want:
			c.Incorrect++
			fmt.Fprintf(env.log, "batch-paper: run %d stdout sha256 %s, want %s\n", i, r.sum, want)
		default:
			c.OK++
		}
		if i == 0 || r.err != nil {
			continue // the warm-up pays first-exec costs users pay once
		}
		walls = append(walls, r.wall.Seconds())
		setups = append(setups, r.setup.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
		rss = append(rss, r.rss)
	}
	if len(walls) == 0 {
		return c, fmt.Errorf("batch-paper: every timed run failed")
	}
	m.med("setup_s", setups, 1, "s")
	m.med("rss_mb", rss, 1e-6, "MB")
	m.med("batch.wall_s", walls, 1, "s")
	m.med("batch.cpu_s", cpus, 1, "s")
	return c, nil
}

// serialWall is one `synts -j 1 all` run for the layer ledger's
// reconciliation. Its stdout must match the pin when the seed has one:
// the output is identical at every -j.
func serialWall(env *env, seed int64, m metrics) (counts, error) {
	pinned, err := pins()
	if err != nil {
		return counts{}, err
	}
	r := runSynts(env, "synts-all-j1", batchArgs(seed, 1))
	if r.err != nil {
		return counts{Attempted: 1, Errors: 1}, fmt.Errorf("batch.serial_wall_s: %w", r.err)
	}
	c := counts{Attempted: 1, OK: 1}
	if want, ok := pinned[seed]; ok && r.sum != want {
		c.OK, c.Incorrect = 0, 1
		fmt.Fprintf(env.log, "batch.serial_wall_s: stdout sha256 %s, want %s\n", r.sum, want)
	}
	m.set("batch.serial_wall_s", r.wall.Seconds(), "s")
	return c, nil
}
