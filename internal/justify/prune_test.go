package justify

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/pathenum"
	"repro/internal/robust"
	"repro/internal/synth"
	"repro/internal/tval"
)

// pruneCubes returns screened fault cubes of c plus merges of
// neighbouring pairs, so the requirement sets range from one fault's
// A(p) to the unions a compacted test must satisfy, followed by random
// cubes whose planes are required independently (an intermediate-only
// requirement reaches the probes' stable-input coupling).
func pruneCubes(t *testing.T, c *circuit.Circuit, maxFaults int) []robust.Cube {
	t.Helper()
	res, err := pathenum.Enumerate(c, pathenum.Config{MaxFaults: maxFaults, Mode: pathenum.DistancePruned})
	if err != nil {
		t.Fatal(err)
	}
	kept, _ := robust.Screen(c, res.Faults)
	var cubes []robust.Cube
	for i := range kept {
		cubes = append(cubes, kept[i].Alts[0])
		if i > 0 {
			if m, ok := kept[i-1].Alts[0].Merge(&kept[i].Alts[0]); ok {
				cubes = append(cubes, m)
			}
		}
	}
	rng := rand.New(rand.NewSource(int64(len(c.Lines))))
	for len(cubes) < 2*len(kept)+100 {
		var q robust.Cube
		for k := 1 + rng.Intn(4); k > 0; k-- {
			var vs [circuit.NumPlanes]tval.V
			for p := range vs {
				vs[p] = tval.V(rng.Intn(3)) // 0, 1 or x
			}
			one := robust.Cube{Nets: []int{c.Lines[rng.Intn(len(c.Lines))].Net},
				Vals: []tval.Triple{tval.NewTriple(vs[0], vs[1], vs[2])}}
			if m, ok := q.Merge(&one); ok {
				q = m
			}
		}
		cubes = append(cubes, q)
	}
	return cubes
}

func pruneCircuits() []*circuit.Circuit {
	return []*circuit.Circuit{
		bench.S27(), bench.C17(),
		synth.MustGenerate(synth.BenchmarkProfiles["b03"]),
		synth.MustGenerate(synth.BenchmarkProfiles["s641"]),
	}
}

// TestPrunedProbesCannotConflict checks the exactness of probe
// pruning: every position assignNecessary skips is probed for real, at
// the moment it is skipped, with both values, and neither may conflict.
// A skipped probe therefore has the outcome "no conflict" the
// unpruned procedure would have found, and changes no decision.
func TestPrunedProbesCannotConflict(t *testing.T) {
	for _, c := range pruneCircuits() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			j := New(c, Config{Seed: 5})
			checked := 0
			j.onPrune = func(piIdx, plane int) {
				checked++
				for _, v := range []tval.V{tval.Zero, tval.One} {
					if j.probe(piIdx, plane, v) {
						t.Fatalf("pruned position (PI %d, plane %d) conflicts with value %v", piIdx, plane, v)
					}
				}
			}
			cubes := pruneCubes(t, c, 200)
			for i := range cubes {
				j.Justify(&cubes[i])
			}
			if checked == 0 || 2*checked != j.Stats().Pruned {
				t.Errorf("%d pruned positions checked, Stats.Pruned = %d", checked, j.Stats().Pruned)
			}
			t.Logf("%d cubes: %d positions pruned and checked, %d probes simulated",
				len(cubes), checked, j.Stats().Probes-2*checked)
		})
	}
}

// TestNoPruningUnderDirtyTrackingAblation: the paper-literal mode
// probes every position.
func TestNoPruningUnderDirtyTrackingAblation(t *testing.T) {
	c := bench.S27()
	j := New(c, Config{Seed: 5, DisableDirtyTracking: true})
	for _, q := range pruneCubes(t, c, 0) {
		j.Justify(&q)
	}
	if st := j.Stats(); st.Pruned != 0 || st.Probes == 0 {
		t.Errorf("ablation stats %+v: want probes and no pruning", st)
	}
}

// TestJustifyImpliedMatchesJustify: entering with the cube's fixpoint
// already on the implier decides exactly as Justify, which computes it.
func TestJustifyImpliedMatchesJustify(t *testing.T) {
	c := synth.MustGenerate(synth.BenchmarkProfiles["b03"])
	a, b := New(c, Config{Seed: 4}), New(c, Config{Seed: 4})
	cubes := pruneCubes(t, c, 200)
	for i := range cubes {
		want, wok := a.Justify(&cubes[i])
		if !b.Implier().ImplyConsistent(&cubes[i]) {
			if wok {
				t.Fatalf("cube %d: justified though its implication conflicts", i)
			}
			continue
		}
		got, gok := b.JustifyImplied(&cubes[i])
		if gok != wok || got.String() != want.String() {
			t.Fatalf("cube %d: JustifyImplied %v %v, Justify %v %v", i, gok, got, wok, want)
		}
	}
	sa, sb := a.Stats(), b.Stats()
	if sa.Successes != sb.Successes || sa.Decisions != sb.Decisions || sa.Probes != sb.Probes {
		t.Errorf("Justify stats %+v, JustifyImplied stats %+v", sa, sb)
	}
}
