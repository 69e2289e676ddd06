package main

import (
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"synts/internal/fleet"
	"synts/internal/service"
)

// call is one request's outcome as the load generator saw it. Only the
// response parts the benchmark reads are kept, so a run of tens of
// thousands of requests stays small.
type call struct {
	due  time.Time // when the schedule wanted it sent (zero in a closed loop)
	sent time.Time
	done time.Time

	err       bool // no HTTP answer within the client's budget
	status    int
	shed      string
	warm      bool
	coalesced bool
	body      []byte // 200 bodies, for verification
}

// latency is measured from the due time in an open loop, so a stall is
// charged to every request queued behind it, and from the send time in a
// closed loop.
func (c *call) latency() time.Duration {
	if c.due.IsZero() {
		return c.done.Sub(c.sent)
	}
	return c.done.Sub(c.due)
}

// late is how far behind its schedule the generator sent the request.
func (c *call) late() time.Duration { return c.sent.Sub(c.due) }

func (c *call) ok() bool { return !c.err && c.status == http.StatusOK }

// sender sends body i and reports what came back.
type sender func(i int, body []byte) *fleet.Result

// clientSender sends through a fleet client.
func clientSender(cl *fleet.Client) sender {
	return func(_ int, body []byte) *fleet.Result { return cl.Do(body) }
}

func record(c *call, res *fleet.Result) {
	if res.Err != nil {
		c.err = true
		return
	}
	h := res.Header
	c.status, c.shed = res.Status, res.Shed
	c.warm = h.Get(service.HeaderWarm) != ""
	c.coalesced = h.Get(service.HeaderCoalesced) != ""
	if c.ok() {
		c.body = res.Body
	}
}

// drive sends bodies from `callers` goroutines that each take the next
// body as soon as they are free, and returns the calls, indexed like
// bodies, with the phase's wall time.
//
// With rate > 0 it is an open loop: body i is due at start + i/rate and
// its caller sleeps until then. When every caller is busy, due requests
// wait in the generator and are sent late; their latency still runs from
// the due time. With rate 0 it is a closed loop: each caller sends its
// next request when its last reply arrives, the way a core's controller
// waits for its assignment before the next interval starts.
func drive(send sender, bodies [][]byte, callers int, rate float64) ([]call, time.Duration) {
	calls := make([]call, len(bodies))
	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(time.Second) / rate)
	}
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(bodies) {
					return
				}
				c := &calls[i]
				if rate > 0 {
					c.due = start.Add(time.Duration(i) * interval)
					if d := time.Until(c.due); d > 0 {
						sleepPrecise(d)
					}
				}
				c.sent = time.Now()
				res := send(i, bodies[i])
				c.done = time.Now()
				record(c, res)
			}
		}()
	}
	wg.Wait()
	return calls, time.Since(start)
}

// sleepPrecise blocks the calling thread in nanosleep for d. The runtime's
// timers wake with millisecond granularity on Linux (the epoll timeout),
// which would send open-loop requests about 0.5 ms late on average and add
// that to every latency; nanosleep wakes within the kernel's timer slack.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
