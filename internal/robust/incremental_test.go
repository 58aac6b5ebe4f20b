package robust

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/synth"
	"repro/internal/tval"
)

// randomCube draws a cube on a few random nets. Half the time the
// requirements are read off the simulation of a random two-pattern
// test (so the cube is consistent and its implication must not
// conflict); otherwise every plane is x, 0 or 1 at random, which
// conflicts often.
func randomCube(rng *rand.Rand, c *circuit.Circuit) Cube {
	var sim []tval.Triple
	if rng.Intn(2) == 0 {
		tp := circuit.TwoPattern{P1: make([]tval.V, len(c.PIs)), P3: make([]tval.V, len(c.PIs))}
		for i := range c.PIs {
			tp.P1[i], tp.P3[i] = tval.V(rng.Intn(2)), tval.V(rng.Intn(2))
		}
		sim = tp.Simulate(c)
	}
	var q Cube
	for k := 1 + rng.Intn(6); k > 0; k-- {
		net := c.Lines[rng.Intn(len(c.Lines))].Net
		var vs [circuit.NumPlanes]tval.V
		for p := range vs {
			vs[p] = tval.X
			if rng.Intn(2) == 0 {
				continue
			}
			if sim != nil {
				vs[p] = sim[net].At(p)
			} else {
				vs[p] = tval.V(rng.Intn(2))
			}
		}
		q.add(net, tval.NewTriple(vs[0], vs[1], vs[2]))
	}
	return q
}

// implied snapshots every (net, plane) value the implier holds.
func implied(im *Implier) []tval.V {
	var out []tval.V
	for p := 0; p < circuit.NumPlanes; p++ {
		out = append(out, im.val[p]...)
	}
	return out
}

func diffValues(a, b []tval.V) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestExtendMatchesFromScratch is the differential test of incremental
// implication: implying a then extending by b must reach exactly the
// verdict and, when consistent, exactly the values of implying the
// merged cube from scratch; Undo to the mark taken between the two
// must restore the state exactly.
func TestExtendMatchesFromScratch(t *testing.T) {
	circuits := []*circuit.Circuit{bench.S27(), bench.C17()}
	names := make([]string, 0, len(synth.BenchmarkProfiles))
	for n := range synth.BenchmarkProfiles {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		circuits = append(circuits, synth.MustGenerate(synth.BenchmarkProfiles[n]))
	}
	for ci, c := range circuits {
		c := c
		rng := rand.New(rand.NewSource(int64(ci) + 1))
		t.Run(c.Name, func(t *testing.T) {
			inc, ref := NewImplier(c), NewImplier(c)
			var consistent, conflicts int
			for trial := 0; trial < 300; trial++ {
				a, b := randomCube(rng, c), randomCube(rng, c)
				if !inc.ImplyConsistent(&a) {
					inc.Undo(0)
					continue
				}
				base := implied(inc)
				mark := inc.Mark()
				got := inc.Extend(&b)
				m, mok := a.Merge(&b)
				want := mok && ref.ImplyConsistent(&m)
				if got != want {
					t.Fatalf("trial %d: Extend verdict %v, from-scratch %v\na=%s\nb=%s",
						trial, got, want, a.Format(c), b.Format(c))
				}
				if got {
					consistent++
					if i := diffValues(implied(inc), implied(ref)); i >= 0 {
						t.Fatalf("trial %d: plane %d net %d: incremental %v, from-scratch %v",
							trial, i/len(c.Lines), i%len(c.Lines), implied(inc)[i], implied(ref)[i])
					}
				} else {
					conflicts++
				}
				inc.Undo(mark)
				if i := diffValues(implied(inc), base); i >= 0 {
					t.Fatalf("trial %d: Undo left plane %d net %d at %v, want %v",
						trial, i/len(c.Lines), i%len(c.Lines), implied(inc)[i], base[i])
				}
				// The rolled-back implier keeps working incrementally.
				if inc.Extend(&b) != want {
					t.Fatalf("trial %d: Extend after Undo disagrees", trial)
				}
				inc.Undo(mark)
			}
			inc.Undo(0)
			for i, v := range implied(inc) {
				if v != tval.X {
					t.Fatalf("Undo(0) left plane %d net %d at %v", i/len(c.Lines), i%len(c.Lines), v)
				}
			}
			t.Logf("%d consistent, %d conflicting extensions", consistent, conflicts)
			if consistent == 0 || conflicts == 0 {
				t.Errorf("degenerate sample: %d consistent, %d conflicting extensions", consistent, conflicts)
			}
		})
	}
}
