package main

import "math/rand/v2"

// rngFor returns the generator of one named input stream of a run. Every
// input the benchmark makes comes from the run's --seed through here, so
// the same seed gives the same inputs.
func rngFor(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// Stream identifiers for rngFor.
const (
	streamSweep   = 2
	streamSignoff = 3
	streamPaper   = 4
)

// paperSubSeeds returns the pfSeeds sub-seeds the paper-flow passes
// cycle through. The first is the run seed itself, so the default seed
// reproduces the paper's tables.
func paperSubSeeds(seed uint64) []uint64 {
	out := []uint64{seed}
	for r := rngFor(seed, streamPaper); len(out) < pfSeeds; {
		out = append(out, r.Uint64())
	}
	return out
}
