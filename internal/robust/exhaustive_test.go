package robust

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/faults"
	"repro/internal/pathenum"
	"repro/internal/tval"
)

// enumerateAllTests yields every fully specified two-pattern test of a
// circuit with n inputs (4^n tests).
func enumerateAllTests(n int, f func(t circuit.TwoPattern)) {
	total := 1
	for i := 0; i < 2*n; i++ {
		total *= 2
	}
	p1 := make([]tval.V, n)
	p3 := make([]tval.V, n)
	for code := 0; code < total; code++ {
		c := code
		for i := 0; i < n; i++ {
			p1[i] = tval.V(c & 1)
			c >>= 1
			p3[i] = tval.V(c & 1)
			c >>= 1
		}
		f(circuit.TwoPattern{P1: p1, P3: p3})
	}
}

// walkOracle re-implements robust detection by walking the path with
// the classic gate-by-gate conditions (independent of the A(p) cube
// machinery).
func walkOracle(c *circuit.Circuit, f *faults.Fault, sim []tval.Triple) bool {
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
		case circuit.And, circuit.Nand, circuit.Or, circuit.Nor:
			ctrl, _ := g.Type.Controlling()
			nc := ctrl.Not()
			for _, in := range g.In {
				if in == f.Path[i-1] {
					continue
				}
				v := sim[c.Lines[in].Net]
				if tr.P3() == ctrl {
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
		if sim[f.Path[i]] != tr {
			return false
		}
	}
	return true
}

// TestConditionsExhaustivelyCorrect verifies, on small random circuits
// and for every fault of every enumerated path, that the set of tests
// covering A(p) is exactly the set of tests passing the independent
// gate-walk oracle — over all 4^n two-pattern tests.
func TestConditionsExhaustivelyCorrect(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		c := smallRandomCircuit(t, seed)
		res, err := pathenum.Enumerate(c, pathenum.Config{Mode: pathenum.DistancePruned})
		if err != nil {
			t.Fatal(err)
		}
		for fi := range res.Faults {
			f := &res.Faults[fi]
			alts := Conditions(c, f)
			enumerateAllTests(len(c.PIs), func(tp circuit.TwoPattern) {
				sim := tp.Simulate(c)
				cube := false
				for i := range alts {
					if alts[i].CoveredBy(sim) {
						cube = true
						break
					}
				}
				oracle := walkOracle(c, f, sim)
				if cube != oracle {
					t.Fatalf("seed %d fault %s test %v: cube=%v oracle=%v",
						seed, f.Format(c), tp, cube, oracle)
				}
			})
		}
	}
}

// TestUntestabilityProofsExhaustive: every fault the screening (or the
// branch-and-bound search) declares untestable really has no covering
// test among all 4^n.
func TestUntestabilityProofsExhaustive(t *testing.T) {
	for seed := int64(10); seed < 16; seed++ {
		c := smallRandomCircuit(t, seed)
		res, err := pathenum.Enumerate(c, pathenum.Config{Mode: pathenum.DistancePruned})
		if err != nil {
			t.Fatal(err)
		}
		im := NewImplier(c)
		for fi := range res.Faults {
			f := &res.Faults[fi]
			alts := Conditions(c, f)
			screenedOut := true
			for i := range alts {
				if _, ok := im.Imply(&alts[i]); ok {
					screenedOut = false
				}
			}
			if !screenedOut {
				continue
			}
			// Exhaustive confirmation.
			enumerateAllTests(len(c.PIs), func(tp circuit.TwoPattern) {
				sim := tp.Simulate(c)
				if walkOracle(c, f, sim) {
					t.Fatalf("seed %d: fault %s screened out but test %v detects it",
						seed, f.Format(c), tp)
				}
			})
		}
	}
}

// FuzzScreen checks Screen end to end on a random small circuit per
// input: over all 4^n two-pattern tests, a test covers one of a
// fault's kept alternatives iff the gate-walk oracle accepts it, so an
// eliminated fault (no kept alternative) has no robust test at all.
func FuzzScreen(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64) {
		c := smallRandomCircuit(t, seed)
		res, err := pathenum.Enumerate(c, pathenum.Config{Mode: pathenum.DistancePruned})
		if err != nil {
			t.Fatal(err)
		}
		kept, eliminated := Screen(c, res.Faults)
		if len(kept)+eliminated != len(res.Faults) {
			t.Fatalf("kept %d + eliminated %d != %d faults", len(kept), eliminated, len(res.Faults))
		}
		// Screen preserves input order: line the kept faults up with
		// the enumerated ones, leaving eliminated faults without alts.
		alts := make([][]Cube, len(res.Faults))
		k := 0
		for i := range res.Faults {
			if k < len(kept) && kept[k].Fault.Key() == res.Faults[i].Key() {
				alts[i] = kept[k].Alts
				k++
			}
		}
		if k != len(kept) {
			t.Fatalf("only %d of %d kept faults found in input order", k, len(kept))
		}
		enumerateAllTests(len(c.PIs), func(tp circuit.TwoPattern) {
			sim := tp.Simulate(c)
			for i := range res.Faults {
				covered := false
				for j := range alts[i] {
					if alts[i][j].CoveredBy(sim) {
						covered = true
						break
					}
				}
				if oracle := walkOracle(c, &res.Faults[i], sim); covered != oracle {
					t.Fatalf("seed %d fault %s (kept alts %d) test %v: covered=%v oracle=%v",
						seed, res.Faults[i].Format(c), len(alts[i]), tp, covered, oracle)
				}
			}
		})
	})
}

// smallRandomCircuit builds a circuit with at most 6 inputs so that
// 4^n enumeration stays cheap.
func smallRandomCircuit(t testing.TB, seed int64) *circuit.Circuit {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	b := circuit.NewBuilder("small")
	n := 4 + r.Intn(3) // 4..6 inputs
	nets := make([]int, 0, n+12)
	for i := 0; i < n; i++ {
		nets = append(nets, b.AddInput(name("i", i)))
	}
	types := []circuit.GateType{
		circuit.And, circuit.Nand, circuit.Or, circuit.Nor,
		circuit.Not, circuit.Xor,
	}
	gates := 6 + r.Intn(8)
	for g := 0; g < gates; g++ {
		gt := types[r.Intn(len(types))]
		a := nets[r.Intn(len(nets))]
		if gt == circuit.Not {
			nets = append(nets, b.AddGate(gt, name("g", g), a))
			continue
		}
		c2 := nets[r.Intn(len(nets))]
		nets = append(nets, b.AddGate(gt, name("g", g), a, c2))
	}
	for _, nd := range nets {
		b.MarkOutput(nd)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func name(p string, i int) string {
	return p + string(rune('a'+i/26)) + string(rune('a'+i%26))
}
