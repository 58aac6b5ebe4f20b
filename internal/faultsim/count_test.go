package faultsim_test

import (
	"context"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faultsim"
	"repro/internal/robust"
)

// countFullScan is the no-short-circuit reference: every (test, fault)
// pair is checked on the scalar simulation.
func countFullScan(c *circuit.Circuit, tests []circuit.TwoPattern, fcs []robust.FaultConditions) int {
	detected := make([]bool, len(fcs))
	for ti := range tests {
		sim := tests[ti].Simulate(c)
		for fi := range fcs {
			if faultsim.DetectsSim(&fcs[fi], sim) {
				detected[fi] = true
			}
		}
	}
	n := 0
	for _, d := range detected {
		if d {
			n++
		}
	}
	return n
}

// The count of a generated test set (not random tests) must match the
// full scan for serial and sharded runs.
func TestCountMatchesFullScan(t *testing.T) {
	d, err := experiments.Prepare("s641", experiments.Params{NP: 400, NP0: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := core.Generate(d.Circuit, d.P0, core.Config{Heuristic: core.ValueBased, Seed: 1})
	all := d.All()
	want := countFullScan(d.Circuit, res.Tests, all)
	for _, workers := range []int{1, 4} {
		got, err := faultsim.CountParallel(context.Background(), d.Circuit, res.Tests, all, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("workers=%d: CountParallel = %d, full scan = %d", workers, got, want)
		}
	}
}
