package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// evenDues returns n send times spaced 1/rate seconds apart. Even spacing
// keeps arrival bursts out of the tail, so the tail shows the server.
func evenDues(n int, rate float64) []time.Duration {
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return dues
}

// sent is the timing of one open-loop request.
type sent struct {
	ok      bool          // do reported success
	skipped bool          // never sent: the run hit its hard stop first
	latency time.Duration // completion minus due time
	late    time.Duration // send minus due time, when the sender had to wait for the due time
	waited  bool          // the sender was idle and slept until the due time
}

// openLoop sends request i at start+dues[i] over conns senders. A sender
// takes the next unsent request; if it is not yet due, the sender sleeps
// until it is, and any overshoot is generator lateness. If it is already
// due the sender is behind, and the wait counts in the request's latency,
// which always runs from the due time. Requests not started by
// start+stop are skipped.
func openLoop(start time.Time, dues []time.Duration, conns int, stop time.Duration, do func(conn, i int) bool) []sent {
	out := make([]sent, len(dues))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(dues) {
					return
				}
				due := start.Add(dues[i])
				now := time.Now()
				if now.Sub(start) > stop {
					out[i].skipped = true
					continue
				}
				if wait := due.Sub(now); wait > 0 {
					time.Sleep(wait)
					out[i].waited = true
					out[i].late = time.Since(due)
				}
				out[i].ok = do(c, i)
				out[i].latency = time.Since(due)
			}
		}(c)
	}
	wg.Wait()
	return out
}

// lateness returns the generator lateness of every request whose sender
// slept until its due time, in milliseconds.
func lateness(ss []sent) []float64 {
	var out []float64
	for _, s := range ss {
		if s.waited {
			out = append(out, ms(s.late))
		}
	}
	return out
}
