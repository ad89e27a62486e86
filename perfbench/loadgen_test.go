package main

import (
	"sync/atomic"
	"testing"
	"time"
)

// A stall delays every request queued behind it, and open-loop latency
// must show that: it runs from the due time, not from the send.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	ms := time.Millisecond
	dues := []time.Duration{0, 5 * ms, 10 * ms, 100 * ms}
	var sentAt [4]time.Duration
	start := time.Now()
	out := openLoop(start, dues, 1, time.Second, func(_, i int) bool {
		sentAt[i] = time.Since(start)
		if i == 0 {
			time.Sleep(50 * ms)
		}
		return true
	})
	// Requests 1 and 2 fell due during the stall: sent late, timed from
	// their due times, and not generator lateness.
	for _, i := range []int{1, 2} {
		if out[i].waited {
			t.Errorf("request %d waited for its due time during the stall", i)
		}
		if want := 50*ms - dues[i]; out[i].latency < want {
			t.Errorf("request %d latency %v, want at least %v (stall minus due offset)", i, out[i].latency, want)
		}
	}
	// Request 3 fell due after the backlog drained: the sender slept for
	// it, so its send overshoot is generator lateness.
	if !out[3].waited || out[3].late < 0 || out[3].late > 20*ms {
		t.Errorf("request 3: waited %v late %v", out[3].waited, out[3].late)
	}
	if sentAt[3] < dues[3] {
		t.Errorf("request 3 sent at %v, before its due time %v", sentAt[3], dues[3])
	}
	if got := lateness(out); len(got) != 1 {
		t.Errorf("lateness reported for %d requests, want only the one that waited", len(got))
	}
}

func TestOpenLoopSkipsAfterStop(t *testing.T) {
	ms := time.Millisecond
	dues := []time.Duration{0, 1 * ms, 2 * ms}
	var calls atomic.Int32
	out := openLoop(time.Now(), dues, 1, 10*ms, func(_, i int) bool {
		calls.Add(1)
		time.Sleep(30 * ms)
		return true
	})
	if calls.Load() != 1 || !out[1].skipped || !out[2].skipped || out[1].ok {
		t.Errorf("calls %d, results %+v: want the two requests after the stop skipped", calls.Load(), out)
	}
}

func TestEvenDues(t *testing.T) {
	dues := evenDues(5, 200)
	for i, d := range dues {
		if want := time.Duration(i) * 5 * time.Millisecond; d != want {
			t.Errorf("due %d = %v, want %v", i, d, want)
		}
	}
}
