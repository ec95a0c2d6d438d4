package main

import (
	"bytes"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// reqBody is one prepared request: route, JSON body and what the oracle
// expects back.
type reqBody struct {
	kind opKind
	path string
	data []byte
	// want holds the oracle classes, one per graph; nil where any class
	// in [0,k) is right (predictions on the learning model).
	want []int
	// truth holds the generated labels, for served accuracy.
	truth []int
}

type opKind uint8

const (
	opPredict  opKind = iota // predict on the fixed model ("default" or "serve")
	opLearn                  // predict on the model the trainer updates
	opFeedback               // one labeled sample for the trainer
)

// sample is one request as sent and answered. Times are nanoseconds
// since the client's epoch; due is the scheduled send time (the send
// time itself in a closed loop).
type sample struct {
	body            int32
	due, sent, done int64
	status          int
	resp            []byte
	err             error
}

// client is the in-process load generator: at most conns connections and
// as many sender goroutines.
type client struct {
	hc     *http.Client
	base   string
	bodies []reqBody
	conns  int
	epoch  time.Time
	ids    atomic.Uint64
	// rec, when set, receives one root span per request.
	rec *recorder
}

func newClient(base string, bodies []reqBody, conns int, epoch time.Time) *client {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr}, base: base, bodies: bodies, conns: conns, epoch: epoch}
}

func (c *client) now() int64 { return int64(time.Since(c.epoch)) }

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole answer; checking it against
// the oracle happens after the phase, off the clock.
func (c *client) do(s *sample) {
	b := &c.bodies[s.body]
	id := c.ids.Add(1)
	req, err := http.NewRequest(http.MethodPost, c.base+b.path, bytes.NewReader(b.data))
	if err != nil {
		s.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", strconv.FormatUint(id, 10))
	s.sent = c.now()
	resp, err := c.hc.Do(req)
	if err == nil {
		s.resp, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		s.status = resp.StatusCode
	}
	s.done = c.now()
	s.err = err
	if c.rec != nil {
		c.rec.add(id, spRoot, s.sent, s.done)
	}
}

// poissonSchedule draws the send offsets of an open loop: exponential
// gaps at rate per second, for dur.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []int64 {
	var at []int64
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		ns := int64(t * 1e9)
		if ns >= int64(dur) {
			return at
		}
		at = append(at, ns)
	}
}

// openLoop sends bodies[ops[i]] at start+offsets[i] over conns senders.
// A sender that is still busy when a send falls due sends late, and the
// lateness counts in that request's latency.
func (c *client) openLoop(ops []int32, offsets []int64, start int64) []sample {
	samples := make([]sample, len(offsets))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range c.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(samples) {
					return
				}
				s := &samples[i]
				s.body, s.due = ops[i], start+offsets[i]
				c.sleepUntil(s.due)
				c.do(s)
			}
		}()
	}
	wg.Wait()
	return samples
}

// sleepUntil waits for the epoch offset t. The Go timer wakes up to a
// millisecond late on an idle process, so the wait sleeps in the kernel
// until shortly before t and yields for the rest.
func (c *client) sleepUntil(t int64) {
	const spin = 50 * time.Microsecond
	if d := time.Duration(t - c.now()); d > spin {
		ts := syscall.NsecToTimespec(int64(d - spin))
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
	for c.now() < t {
		runtime.Gosched()
	}
}

// closedLoop keeps conns senders busy back to back until start+dur. Each
// sender draws its requests from its own stream of rng.
func (c *client) closedLoop(draw func(*rand.Rand) int32, seed uint64, start int64, dur time.Duration) (samples []sample, end int64) {
	per := make([][]sample, c.conns)
	var wg sync.WaitGroup
	for w := range c.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(w)+1))
			for c.now() < start+int64(dur) {
				s := sample{body: draw(rng)}
				s.due = c.now()
				c.do(&s)
				per[w] = append(per[w], s)
			}
		}()
	}
	wg.Wait()
	end = start
	for _, ss := range per {
		samples = append(samples, ss...)
		for _, s := range ss {
			end = max(end, s.done)
		}
	}
	return samples, end
}

// latencies returns the due-to-done latencies, in milliseconds, of the
// samples keep selects.
func latencies(samples []sample, keep func(*sample) bool) []float64 {
	var out []float64
	for i := range samples {
		if keep(&samples[i]) {
			out = append(out, float64(samples[i].done-samples[i].due)/1e6)
		}
	}
	return out
}

// lagP99 is the 99th percentile of how late sends ran, in milliseconds.
func lagP99(samples []sample) float64 {
	lags := make([]float64, len(samples))
	for i, s := range samples {
		lags[i] = math.Max(0, float64(s.sent-s.due)/1e6)
	}
	return quantile(lags, 0.99)
}
