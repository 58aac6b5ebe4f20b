package core

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/bitsim"
	"repro/internal/circuit"
	"repro/internal/faults"
	"repro/internal/faultsim"
	"repro/internal/pathenum"
	"repro/internal/robust"
	"repro/internal/synth"
)

func screened(t testing.TB, c *circuit.Circuit, maxFaults int) []robust.FaultConditions {
	t.Helper()
	res, err := pathenum.Enumerate(c, pathenum.Config{MaxFaults: maxFaults, Mode: pathenum.DistancePruned})
	if err != nil {
		t.Fatal(err)
	}
	kept, _ := robust.Screen(c, res.Faults)
	return kept
}

// firstDetect fault simulates tests over fcs and returns each fault's
// first detecting test, or -1.
func firstDetect(t testing.TB, c *circuit.Circuit, tests []circuit.TwoPattern, fcs []robust.FaultConditions) []int {
	t.Helper()
	first, err := bitsim.Run(c, tests, fcs)
	if err != nil {
		t.Fatal(err)
	}
	return first
}

// detectedCount is the number of faults of fcs the tests detect.
func detectedCount(t testing.TB, c *circuit.Circuit, tests []circuit.TwoPattern, fcs []robust.FaultConditions) int {
	t.Helper()
	n, err := bitsim.Count(c, tests, fcs)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestGenerateS27AllHeuristics(t *testing.T) {
	c := bench.S27()
	fcs := screened(t, c, 0)
	for _, h := range Heuristics {
		h := h
		t.Run(h.String(), func(t *testing.T) {
			res := Generate(c, fcs, Config{Heuristic: h, Seed: 1})
			if res.DetectedCounts[0] == 0 {
				t.Fatal("nothing detected")
			}
			// The detection flags must agree with an independent fault
			// simulation of the returned test set.
			resim := firstDetect(t, c, res.Tests, fcs)
			for i := range fcs {
				if (resim[i] >= 0) != res.Detected[0][i] {
					t.Errorf("fault %d: run reports %v, resimulation %v",
						i, res.Detected[0][i], resim[i] >= 0)
				}
			}
			if len(res.Tests) > len(fcs) {
				t.Errorf("more tests (%d) than target faults (%d)", len(res.Tests), len(fcs))
			}
			for _, tp := range res.Tests {
				if !tp.FullySpecified() {
					t.Error("test not fully specified")
				}
			}
		})
	}
}

func TestCompactionReducesTests(t *testing.T) {
	c := synth.MustGenerate(synth.BenchmarkProfiles["b09"])
	fcs := screened(t, c, 400)
	if len(fcs) < 30 {
		t.Skipf("only %d faults", len(fcs))
	}
	un := Generate(c, fcs, Config{Heuristic: Uncompacted, Seed: 2})
	va := Generate(c, fcs, Config{Heuristic: ValueBased, Seed: 2})
	t.Logf("uncomp: %d tests %d detected; values: %d tests %d detected",
		len(un.Tests), un.DetectedCounts[0], len(va.Tests), va.DetectedCounts[0])
	if len(va.Tests) >= len(un.Tests) {
		t.Errorf("value-based compaction did not reduce tests: %d vs %d",
			len(va.Tests), len(un.Tests))
	}
	// Detection quality must be comparable (paper Table 3: small
	// variations only).
	lo := un.DetectedCounts[0] - un.DetectedCounts[0]/5
	if va.DetectedCounts[0] < lo {
		t.Errorf("value-based detects far fewer: %d vs %d", va.DetectedCounts[0], un.DetectedCounts[0])
	}
}

func TestDeterministicRuns(t *testing.T) {
	c := bench.S27()
	fcs := screened(t, c, 0)
	a := Generate(c, fcs, Config{Heuristic: ValueBased, Seed: 9})
	b := Generate(c, fcs, Config{Heuristic: ValueBased, Seed: 9})
	if len(a.Tests) != len(b.Tests) || a.DetectedCounts[0] != b.DetectedCounts[0] {
		t.Fatalf("same seed, different results: %d/%d vs %d/%d tests/detected",
			len(a.Tests), a.DetectedCounts[0], len(b.Tests), b.DetectedCounts[0])
	}
	for i := range a.Tests {
		if a.Tests[i].String() != b.Tests[i].String() {
			t.Fatalf("test %d differs between identical runs", i)
		}
	}
}

func TestEnrichS27(t *testing.T) {
	c := bench.S27()
	fcs := screened(t, c, 0)
	raw := make([]faults.Fault, len(fcs))
	for i := range fcs {
		raw[i] = fcs[i].Fault
	}
	p0f, p1f, _ := faults.Partition(raw, len(raw)/2)
	p0 := fcs[:len(p0f)]
	p1 := fcs[len(p0f) : len(p0f)+len(p1f)]

	er := Enrich(c, p0, p1, Config{Seed: 3})
	if er.DetectedCounts[0] == 0 {
		t.Fatal("enrichment detected nothing from P0")
	}
	if len(er.Detected[0]) != len(p0) || len(er.Detected[1]) != len(p1) {
		t.Fatal("detection vectors sized wrong")
	}
	// Re-simulate: every reported detection must be real.
	all := append(append([]robust.FaultConditions(nil), p0...), p1...)
	resim := firstDetect(t, c, er.Tests, all)
	for i := range p0 {
		if (resim[i] >= 0) != er.Detected[0][i] {
			t.Errorf("P0 fault %d: enrich reports %v, resim %v", i, er.Detected[0][i], resim[i] >= 0)
		}
	}
	for i := range p1 {
		if (resim[len(p0)+i] >= 0) != er.Detected[1][i] {
			t.Errorf("P1 fault %d: enrich reports %v, resim %v", i, er.Detected[1][i], resim[len(p0)+i] >= 0)
		}
	}
	t.Logf("s27 enrich: %d tests, P0 %d/%d, P1 %d/%d",
		len(er.Tests), er.DetectedCounts[0], len(p0), er.DetectedCounts[1], len(p1))
}

func TestEnrichmentBeatsAccidentalDetection(t *testing.T) {
	// The paper's central claim: the enrichment procedure detects more
	// of P0 ∪ P1 than the basic procedure's accidental detection, at a
	// comparable number of tests.
	c := synth.MustGenerate(synth.BenchmarkProfiles["b09"])
	fcs := screened(t, c, 2000)
	raw := make([]faults.Fault, len(fcs))
	for i := range fcs {
		raw[i] = fcs[i].Fault
	}
	p0f, p1f, _ := faults.Partition(raw, len(raw)/3)
	if len(p1f) < 20 {
		t.Skipf("P1 too small: %d", len(p1f))
	}
	p0 := fcs[:len(p0f)]
	p1 := fcs[len(p0f):]

	basic := Generate(c, p0, Config{Heuristic: ValueBased, Seed: 4})
	all := append(append([]robust.FaultConditions(nil), p0...), p1...)
	basicAll := detectedCount(t, c, basic.Tests, all)

	er := Enrich(c, p0, p1, Config{Seed: 4})
	enrichAll := er.DetectedCounts[0] + er.DetectedCounts[1]

	t.Logf("basic: %d tests, %d/%d of P0∪P1; enrich: %d tests, %d/%d",
		len(basic.Tests), basicAll, len(all), len(er.Tests), enrichAll, len(all))
	if enrichAll <= basicAll {
		t.Errorf("enrichment (%d) must beat accidental detection (%d)", enrichAll, basicAll)
	}
	// Test count within a reasonable band of the basic run (paper:
	// "very close").
	if len(er.Tests) > len(basic.Tests)+len(basic.Tests)/4+2 {
		t.Errorf("enrichment test count %d much larger than basic %d",
			len(er.Tests), len(basic.Tests))
	}
}

func TestCheapAcceptInvariance(t *testing.T) {
	c := bench.S27()
	fcs := screened(t, c, 0)
	on := Generate(c, fcs, Config{Heuristic: ValueBased, Seed: 5})
	off := Generate(c, fcs, Config{Heuristic: ValueBased, Seed: 5, DisableCheapAccept: true})
	// The fast path may change the trajectory slightly; detection
	// totals must stay in the same ballpark.
	diff := on.DetectedCounts[0] - off.DetectedCounts[0]
	if diff < 0 {
		diff = -diff
	}
	if diff > len(fcs)/5 {
		t.Errorf("cheap accept changes results too much: %d vs %d detected",
			on.DetectedCounts[0], off.DetectedCounts[0])
	}
	if on.CheapAccepts == 0 {
		t.Log("note: no cheap accepts fired on s27")
	}
}

func TestSecondaryCountsConsistent(t *testing.T) {
	c := bench.S27()
	fcs := screened(t, c, 0)
	res := Generate(c, fcs, Config{Heuristic: ValueBased, Seed: 6})
	if res.SecondaryAccepts+res.SecondaryRejects == 0 {
		t.Error("value-based run must consider secondary targets")
	}
	if res.CheapAccepts > res.SecondaryAccepts {
		t.Error("cheap accepts cannot exceed total accepts")
	}
	if res.JustifyStats.Calls == 0 {
		t.Error("justifier stats missing")
	}
}

func TestUncompactedOneTestPerPrimary(t *testing.T) {
	c := bench.S27()
	fcs := screened(t, c, 0)
	res := Generate(c, fcs, Config{Heuristic: Uncompacted, Seed: 7})
	// Each test came from one primary; with dropping, tests ≤ faults
	// and detected ≥ tests (each test detects at least its primary).
	if res.DetectedCounts[0] < len(res.Tests) {
		t.Errorf("detected %d < tests %d", res.DetectedCounts[0], len(res.Tests))
	}
	if res.SecondaryAccepts != 0 {
		t.Error("uncompacted run must not accept secondaries")
	}
}

func TestCollapsedTargetingPreservesCoverage(t *testing.T) {
	// Target only the representative faults after subsumption
	// collapsing; full-population fault simulation must show the same
	// (or better) coverage as targeting everything, with less ATPG
	// work.
	c := bench.S27()
	fcs := screened(t, c, 0)
	reps, subsumedBy := robust.Collapse(fcs)
	if len(subsumedBy) == 0 {
		t.Skip("no subsumption")
	}
	repSet := make([]robust.FaultConditions, len(reps))
	for i, r := range reps {
		repSet[i] = fcs[r]
	}
	full := Generate(c, fcs, Config{Heuristic: ValueBased, Seed: 44})
	collapsed := Generate(c, repSet, Config{Heuristic: ValueBased, Seed: 44})
	// Measure both test sets against the full population.
	fullCov := detectedCount(t, c, full.Tests, fcs)
	collCov := detectedCount(t, c, collapsed.Tests, fcs)
	t.Logf("full targeting: %d targets, %d tests, %d/%d covered; collapsed: %d targets, %d tests, %d/%d covered",
		len(fcs), len(full.Tests), fullCov, len(fcs),
		len(repSet), len(collapsed.Tests), collCov, len(fcs))
	// Subsumption guarantees: every subsumed fault of a detected
	// representative is covered.
	for q, p := range subsumedBy {
		pDetected := false
		for i, r := range reps {
			if r == p && collapsed.Detected[0][i] {
				pDetected = true
			}
		}
		if !pDetected {
			continue
		}
		det := firstDetect(t, c, collapsed.Tests, []robust.FaultConditions{fcs[q]})
		if det[0] < 0 {
			t.Fatalf("subsumed fault %d not covered despite detected representative %d", q, p)
		}
	}
}

func TestLengthBasedPrimaryIsLongest(t *testing.T) {
	// The length-based (and value-based) heuristics must pick the
	// longest remaining fault as the primary target: the first test
	// generated must detect at least one maximal-length fault.
	c := bench.S27()
	fcs := screened(t, c, 0)
	maxLen := fcs[0].Fault.Length
	for _, h := range []Heuristic{LengthBased, ValueBased} {
		res := Generate(c, fcs, Config{Heuristic: h, Seed: 77})
		if len(res.Tests) == 0 {
			t.Fatalf("%v: no tests", h)
		}
		sim := res.Tests[0].Simulate(c)
		hit := false
		for i := range fcs {
			if fcs[i].Fault.Length == maxLen && faultsim.DetectsSim(&fcs[i], sim) {
				hit = true
				break
			}
		}
		if !hit {
			t.Errorf("%v: first test detects no maximal-length fault", h)
		}
	}
}

func TestArbitraryOrderSeedDependent(t *testing.T) {
	// The arbitrary order shuffles with the seed; two seeds should
	// usually give different test sequences (not guaranteed, so check
	// across a few seeds and require at least one difference).
	c := bench.S27()
	fcs := screened(t, c, 0)
	base := Generate(c, fcs, Config{Heuristic: Arbitrary, Seed: 1})
	differs := false
	for seed := int64(2); seed <= 5 && !differs; seed++ {
		other := Generate(c, fcs, Config{Heuristic: Arbitrary, Seed: seed})
		if len(other.Tests) != len(base.Tests) {
			differs = true
			break
		}
		for i := range other.Tests {
			if other.Tests[i].String() != base.Tests[i].String() {
				differs = true
				break
			}
		}
	}
	if !differs {
		t.Error("arbitrary order identical across seeds 1..5")
	}
}

func TestGenerateEmptyTargetSet(t *testing.T) {
	c := bench.S27()
	res := Generate(c, nil, Config{Heuristic: ValueBased, Seed: 1})
	if len(res.Tests) != 0 || res.DetectedCounts[0] != 0 {
		t.Errorf("empty target set produced work: %+v", res)
	}
	er := Enrich(c, nil, nil, Config{Seed: 1})
	if len(er.Tests) != 0 {
		t.Errorf("empty enrichment produced tests")
	}
}
