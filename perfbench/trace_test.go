package main

import (
	"testing"
	"time"
)

func ms2d(v int) time.Duration { return time.Duration(v) * time.Millisecond }

// A layer's self time is its span minus the union of its children's
// intervals, clipped to the span.
func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "pass", Start: ms2d(0), End: ms2d(100)},
		{ID: 1, Parent: 0, Name: "wcd.search", Start: ms2d(10), End: ms2d(40)},
		{ID: 2, Parent: 0, Name: "wcd.search", Start: ms2d(20), End: ms2d(50)},   // overlaps its sibling
		{ID: 3, Parent: 0, Name: "core.verify", Start: ms2d(90), End: ms2d(120)}, // sticks out of the parent
		{ID: 4, Parent: 1, Name: "spice.eval", Start: ms2d(15), End: ms2d(25)},
		{ID: 5, Parent: 2, Name: "spice.eval", Start: ms2d(20), End: ms2d(30)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"bench": ms2d(100 - 40 - 10), // [10,50] and [90,100] covered
		"wcd":   ms2d(30-10) + ms2d(30-10),
		"core":  ms2d(30),
		"spice": ms2d(20),
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers = %v, want %v", got, want)
	}
}

func TestTracerOffIsNoop(t *testing.T) {
	var tr *Tracer
	id := tr.begin("pass", "", -1)
	tr.end(id, 3)
	if id != -1 || tr.snapshot() != nil || tr.write("unused") != nil {
		t.Error("a nil tracer must record nothing")
	}
	on := newTracer(true)
	root := on.begin("pass", "p", -1)
	child := on.begin("wcd.search", "p", root)
	on.end(child, 7)
	if spans := on.snapshot(); len(spans) != 1 || spans[0].Sims != 7 || spans[0].Parent != root {
		t.Errorf("snapshot = %+v, want only the closed child", spans)
	}
}
