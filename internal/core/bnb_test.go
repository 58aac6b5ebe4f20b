package core

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/justify"
)

func TestGenerateWithBnBSeedIndependent(t *testing.T) {
	// With the branch-and-bound backend the result must not depend on
	// the seed (for heuristics that do not shuffle the fault list) —
	// the paper's remark about eliminating run-to-run variation.
	c := bench.S27()
	fcs := screened(t, c, 0)
	a := Generate(c, fcs, Config{Heuristic: ValueBased, Seed: 1, UseBnB: true})
	b := Generate(c, fcs, Config{Heuristic: ValueBased, Seed: 999, UseBnB: true})
	if len(a.Tests) != len(b.Tests) || a.DetectedCounts[0] != b.DetectedCounts[0] {
		t.Fatalf("BnB runs differ across seeds: %d/%d vs %d/%d",
			len(a.Tests), a.DetectedCounts[0], len(b.Tests), b.DetectedCounts[0])
	}
	for i := range a.Tests {
		if a.Tests[i].String() != b.Tests[i].String() {
			t.Fatalf("test %d differs across seeds under BnB", i)
		}
	}
}

func TestGenerateWithBnBDominatesRandomized(t *testing.T) {
	c := bench.S27()
	fcs := screened(t, c, 0)
	bnb := Generate(c, fcs, Config{Heuristic: ValueBased, Seed: 1, UseBnB: true})
	rnd := Generate(c, fcs, Config{Heuristic: ValueBased, Seed: 1})
	if bnb.DetectedCounts[0] < rnd.DetectedCounts[0] {
		t.Errorf("complete search detected fewer faults: %d vs %d",
			bnb.DetectedCounts[0], rnd.DetectedCounts[0])
	}
	// Detection flags must be confirmed by resimulation.
	resim := firstDetect(t, c, bnb.Tests, fcs)
	for i := range fcs {
		if (resim[i] >= 0) != bnb.Detected[0][i] {
			t.Fatalf("fault %d: reported %v, resim %v", i, bnb.Detected[0][i], resim[i] >= 0)
		}
	}
}

func TestEnrichWithBnB(t *testing.T) {
	c := bench.S27()
	fcs := screened(t, c, 0)
	half := len(fcs) / 2
	er := Enrich(c, fcs[:half], fcs[half:], Config{Seed: 1, UseBnB: true,
		BnB: justify.BnBConfig{MaxBacktracks: 5000}})
	if er.DetectedCounts[0] == 0 {
		t.Fatal("BnB enrichment detected nothing")
	}
	if len(er.Tests) == 0 {
		t.Fatal("no tests")
	}
}
