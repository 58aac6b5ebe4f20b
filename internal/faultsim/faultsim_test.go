package faultsim

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/faults"
	"repro/internal/justify"
	"repro/internal/pathenum"
	"repro/internal/robust"
	"repro/internal/tval"
)

// walkRobust is an independent oracle: it walks the fault's path
// through the simulated values and checks the classic robust
// propagation conditions gate by gate, instead of going through the
// A(p) cube. Used to cross-validate DetectsSim.
func walkRobust(c *circuit.Circuit, f *faults.Fault, sim []tval.Triple) bool {
	tr := tval.R
	if f.Dir == faults.SlowToFall {
		tr = tval.F
	}
	if sim[f.Path[0]] != tr {
		return false
	}
	for i := 1; i < len(f.Path); i++ {
		ln := &c.Lines[f.Path[i]]
		if ln.Kind == circuit.LineBranch {
			continue
		}
		g := &c.Gates[ln.Gate]
		switch g.Type {
		case circuit.Not:
			tr = tr.Not()
		case circuit.Buf:
			// unchanged
		case circuit.And, circuit.Nand, circuit.Or, circuit.Nor:
			ctrl, _ := g.Type.Controlling()
			nc := ctrl.Not()
			for _, in := range g.In {
				if in == f.Path[i-1] {
					continue
				}
				v := sim[c.Lines[in].Net]
				if tr.P3() == ctrl {
					// Toward controlling: hazard-free non-controlling.
					if v != tval.NewTriple(nc, nc, nc) {
						return false
					}
				} else if v.P3() != nc {
					return false
				}
			}
			if g.Type.Inverting() {
				tr = tr.Not()
			}
		case circuit.Xor, circuit.Xnor:
			flip := g.Type == circuit.Xnor
			for _, in := range g.In {
				if in == f.Path[i-1] {
					continue
				}
				v := sim[c.Lines[in].Net]
				if v != tval.S0 && v != tval.S1 {
					return false
				}
				if v == tval.S1 {
					flip = !flip
				}
			}
			if flip {
				tr = tr.Not()
			}
		}
		// The on-path line itself must carry the expected transition.
		if sim[f.Path[i]] != tr {
			return false
		}
	}
	return true
}

func s27Screened(t *testing.T) (*circuit.Circuit, []robust.FaultConditions) {
	t.Helper()
	c := bench.S27()
	res, err := pathenum.Enumerate(c, pathenum.Config{Mode: pathenum.DistancePruned})
	if err != nil {
		t.Fatal(err)
	}
	kept, _ := robust.Screen(c, res.Faults)
	return c, kept
}

func TestDetectsMatchesWalkOracle(t *testing.T) {
	c, kept := s27Screened(t)
	r := rand.New(rand.NewSource(9))
	agree, detected := 0, 0
	for trial := 0; trial < 400; trial++ {
		test := randomTest(c, r)
		sim := test.Simulate(c)
		for i := range kept {
			got := DetectsSim(&kept[i], sim)
			want := walkRobust(c, &kept[i].Fault, sim)
			if got != want {
				t.Fatalf("trial %d fault %s: cube detection %v, walk oracle %v\ntest %v",
					trial, kept[i].Fault.Format(c), got, want, test)
			}
			agree++
			if got {
				detected++
			}
		}
	}
	if detected == 0 {
		t.Error("no random test detected any fault; oracle comparison vacuous")
	}
	t.Logf("%d comparisons, %d detections", agree, detected)
}

func randomTest(c *circuit.Circuit, r *rand.Rand) circuit.TwoPattern {
	tp := circuit.TwoPattern{
		P1: make([]tval.V, len(c.PIs)),
		P3: make([]tval.V, len(c.PIs)),
	}
	for i := range tp.P1 {
		tp.P1[i] = tval.V(r.Intn(2))
		tp.P3[i] = tval.V(r.Intn(2))
	}
	return tp
}

func TestGeneratedTestsDetectTheirFaults(t *testing.T) {
	c, kept := s27Screened(t)
	j := justify.New(c, justify.Config{Seed: 11})
	var tests []circuit.TwoPattern
	var expect []int // fault index expected detected by tests[i]
	for i := range kept {
		if test, ok := j.Justify(&kept[i].Alts[0]); ok {
			tests = append(tests, test)
			expect = append(expect, i)
		}
	}
	if len(tests) == 0 {
		t.Fatal("no tests generated")
	}
	for ti, fi := range expect {
		if !Detects(c, tests[ti], &kept[fi]) {
			t.Errorf("test %d does not detect the fault it was generated for: %s",
				ti, kept[fi].Fault.Format(c))
		}
	}
	// RunParallel must agree with Detects and drop faults at their
	// first detection.
	first, err := RunParallel(context.Background(), c, tests, kept, 1)
	if err != nil {
		t.Fatal(err)
	}
	for fi, ti := range first {
		if ti < 0 {
			continue
		}
		if !Detects(c, tests[ti], &kept[fi]) {
			t.Errorf("RunParallel claims test %d detects fault %d but Detects disagrees", ti, fi)
		}
		for earlier := 0; earlier < ti; earlier++ {
			if Detects(c, tests[earlier], &kept[fi]) {
				t.Errorf("fault %d: first detection claimed at %d but test %d already detects it",
					fi, ti, earlier)
			}
		}
	}
}

func TestCount(t *testing.T) {
	c, kept := s27Screened(t)
	j := justify.New(c, justify.Config{Seed: 13})
	var tests []circuit.TwoPattern
	for i := range kept {
		if test, ok := j.Justify(&kept[i].Alts[0]); ok {
			tests = append(tests, test)
		}
	}
	n, err := CountParallel(context.Background(), c, tests, kept, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("count = 0")
	}
	if n > len(kept) {
		t.Fatalf("count %d exceeds fault population %d", n, len(kept))
	}
	// Empty test set detects nothing.
	if n, err := CountParallel(context.Background(), c, nil, kept, 1); err != nil || n != 0 {
		t.Error("empty test set must detect nothing")
	}
	t.Logf("s27: %d tests detect %d/%d faults", len(tests), n, len(kept))
}

func TestAccidentalDetection(t *testing.T) {
	// A single test usually detects more than the fault it was
	// generated for — the effect the paper's compaction leans on.
	c, kept := s27Screened(t)
	j := justify.New(c, justify.Config{Seed: 17})
	multi := false
	for i := range kept {
		test, ok := j.Justify(&kept[i].Alts[0])
		if !ok {
			continue
		}
		sim := test.Simulate(c)
		n := 0
		for k := range kept {
			if DetectsSim(&kept[k], sim) {
				n++
			}
		}
		if n > 1 {
			multi = true
			break
		}
	}
	if !multi {
		t.Error("no generated test detected multiple faults; accidental detection absent")
	}
}
