package main

import (
	"reflect"
	"testing"
)

// The same seed gives the same inputs; another seed gives other ones.
func TestInputsFollowTheSeed(t *testing.T) {
	a, b, c := sweepRequests(7), sweepRequests(7), sweepRequests(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different sweeps")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds, same sweep")
	}
	seen := make(map[uint64]bool)
	for _, r := range a {
		if *r.Options.WCSeed != *a[0].Options.WCSeed {
			t.Error("sweep members do not share the pinned worst-case seed")
		}
		seen[*r.Options.Seed] = true
	}
	if len(seen) != sweepMembers {
		t.Errorf("%d distinct member seeds, want %d", len(seen), sweepMembers)
	}

	p, q := paperSubSeeds(7), paperSubSeeds(7)
	if !reflect.DeepEqual(p, q) || len(p) != pfSeeds || p[0] != 7 {
		t.Errorf("paper sub-seeds %v and %v: want %d, equal, starting with the run seed", p, q, pfSeeds)
	}
	if reflect.DeepEqual(p[1:], paperSubSeeds(8)[1:]) {
		t.Error("different seeds, same paper sub-seeds")
	}
}
