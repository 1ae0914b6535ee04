package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ipg/internal/loadgen"
)

// loader sends a plan's requests to a child over loopback and checks
// every response against the oracle.
type loader struct {
	plan   *Plan
	oracle *Oracle
	conns  int

	attempted, failed atomic.Int64
	reported          atomic.Int64 // failure messages printed so far
}

func newLoader(plan *Plan, oracle *Oracle, conns int) *loader {
	return &loader{plan: plan, oracle: oracle, conns: conns}
}

// send sends one request and checks the answer.  Every failure mode —
// transport error, timeout, non-200 (a 503 refusal included) or a
// response the oracle rejects — is an error.
func (d *loader) send(c *child, req Request) error {
	d.attempted.Add(1)
	status, body, err := c.get(req.Path)
	if err == nil {
		err = d.oracle.Check(req, status, body)
	}
	if err != nil {
		d.failed.Add(1)
		if d.reported.Add(1) <= 5 {
			fmt.Fprintf(os.Stderr, "ipgbench: %s: %v\n", req.Path, err)
		}
	}
	return err
}

// setup starts a child and primes it: setup_s is the time from the
// child's start until its last priming response.
func (d *loader) setup(ctx context.Context, bin string) (*child, float64, error) {
	c, err := startChild(ctx, bin, d.plan.CacheMB, d.plan.Shards, d.conns)
	if err != nil {
		return nil, 0, err
	}
	if err := c.waitHealthy(); err != nil {
		c.stop()
		return nil, 0, err
	}
	for _, req := range d.plan.Prime {
		// A wrong priming answer is counted like any other; the run goes
		// on so the report shows how much else is wrong.
		_ = d.send(c, req)
	}
	return c, time.Since(c.start).Seconds(), nil
}

// sample is one request of a measured window.
type sample struct {
	end time.Duration // completion time, from the window's start
	lat time.Duration
	ok  bool
}

// window is one closed-loop measurement on one child.
type window struct {
	samples       []sample
	elapsed       time.Duration
	before, after Prom // the child's /metrics around the window
	rssMB         float64
}

// measure warms the child up, then drives it closed loop with conns
// connections for dur, scraping /metrics on both sides of the window.
func (d *loader) measure(ctx context.Context, c *child, warm, dur time.Duration) (*window, error) {
	n := int64(len(d.plan.Requests))
	if _, err := loadgen.Run(ctx, loadgen.Options{Conns: d.conns, Duration: warm},
		func(i int64) (int, error) { return 0, d.send(c, d.plan.Requests[(i+n/2)%n]) }); err != nil {
		return nil, err
	}
	before, err := c.scrape()
	if err != nil {
		return nil, err
	}
	w := &window{before: before}
	var mu sync.Mutex
	t0 := time.Now()
	_, err = loadgen.Run(ctx, loadgen.Options{Conns: d.conns, Duration: dur},
		func(i int64) (int, error) {
			start := time.Now()
			err := d.send(c, d.plan.Requests[i%n])
			end := time.Now()
			mu.Lock()
			w.samples = append(w.samples, sample{end: end.Sub(t0), lat: end.Sub(start), ok: err == nil})
			mu.Unlock()
			return 0, err
		})
	if err != nil {
		return nil, err
	}
	w.elapsed = time.Since(t0)
	if w.after, err = c.scrape(); err != nil {
		return nil, err
	}
	if w.rssMB, err = c.peakRSSMB(); err != nil {
		return nil, err
	}
	return w, nil
}

// slice is one part of a window, by request completion time.
type slice struct {
	ok   int64
	dur  time.Duration
	lats []time.Duration // sorted
}

// slices cuts the window into n equal parts; the last one runs to the
// window's end, taking the requests that finished after the deadline.
func (w *window) slices(n int) []slice {
	out := make([]slice, n)
	step := w.elapsed / time.Duration(n)
	for i := range out {
		out[i].dur = step
	}
	out[n-1].dur = w.elapsed - step*time.Duration(n-1)
	for _, s := range w.samples {
		i := int(s.end / step)
		if i >= n {
			i = n - 1
		}
		out[i].lats = append(out[i].lats, s.lat)
		if s.ok {
			out[i].ok++
		}
	}
	for i := range out {
		sortDurations(out[i].lats)
	}
	return out
}

// failures counts the windows' requests that failed.
func failures(ws []*window) int64 {
	var n int64
	for _, w := range ws {
		for _, s := range w.samples {
			if !s.ok {
				n++
			}
		}
	}
	return n
}

// latencies returns every latency of the windows, sorted.
func latencies(ws []*window) []time.Duration {
	var out []time.Duration
	for _, w := range ws {
		for _, s := range w.samples {
			out = append(out, s.lat)
		}
	}
	sortDurations(out)
	return out
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(a, b int) bool { return d[a] < d[b] })
}

// quantileMs is the q-quantile of sorted latencies in milliseconds,
// interpolated between order statistics.
func quantileMs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	v := float64(sorted[i])
	if i+1 < len(sorted) {
		v += (pos - float64(i)) * float64(sorted[i+1]-sorted[i])
	}
	return v / 1e6
}
