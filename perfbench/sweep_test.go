package main

import (
	"testing"
	"time"

	"specwise/internal/jobs"
)

func TestMaxBacklog(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) *time.Time {
		x := t0.Add(time.Duration(ms) * time.Millisecond)
		return &x
	}
	members := []jobs.Status{
		{ID: "a", EnqueuedAt: *at(0), StartedAt: at(0)},  // claimed on arrival
		{ID: "b", EnqueuedAt: *at(0), StartedAt: at(30)}, // queued 0–30
		{ID: "c", EnqueuedAt: *at(10), StartedAt: at(20)},
		{ID: "c", EnqueuedAt: *at(10), StartedAt: at(20)}, // folded into c
		{ID: "d", EnqueuedAt: *at(15)},                    // never started
	}
	if got := maxBacklog(members); got != 3 {
		t.Errorf("maxBacklog = %d, want 3 (b, c and d at 15 ms)", got)
	}
	if got := maxBacklog(nil); got != 0 {
		t.Errorf("maxBacklog(nil) = %d, want 0", got)
	}
}
