package core_test

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiments"
)

// The full enrichment flow on the paper's running example s27:
// enumerate everything, screen, partition with N_P0 = 10, and run the
// procedure of Section 3.2.
func ExampleEnrich() {
	c := bench.S27()
	d, _ := experiments.PrepareCircuit(c, experiments.Params{NP: 0, NP0: 10, Seed: 1})
	res := core.Enrich(c, d.P0, d.P1, core.Config{Seed: 1})
	fmt.Printf("|P0|=%d |P1|=%d tests=%d P0 detected=%d\n",
		len(d.P0), len(d.P1), len(res.Tests), res.DetectedCounts[0])
	// Output:
	// |P0|=10 |P1|=40 tests=3 P0 detected=10
}

// The basic procedure with the value-based compaction heuristic on the
// same target set, with the deterministic branch-and-bound backend.
func ExampleGenerate() {
	c := bench.S27()
	d, _ := experiments.PrepareCircuit(c, experiments.Params{NP: 0, NP0: 10, Seed: 1})
	res := core.Generate(c, d.P0, core.Config{
		Heuristic: core.ValueBased,
		UseBnB:    true, // seed-independent results
	})
	fmt.Printf("tests=%d detected=%d/%d\n", len(res.Tests), res.DetectedCounts[0], len(d.P0))
	// Output:
	// tests=3 detected=10/10
}
