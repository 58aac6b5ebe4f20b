package bitsim

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/justify"
	"repro/internal/pathenum"
	"repro/internal/robust"
	"repro/internal/synth"
	"repro/internal/tval"
)

func randomTests(c *circuit.Circuit, r *rand.Rand, n int) []circuit.TwoPattern {
	return randomValueTests(c, r, n, 2)
}

// randomXTests draws every input value from 0, 1 and x.
func randomXTests(c *circuit.Circuit, r *rand.Rand, n int) []circuit.TwoPattern {
	return randomValueTests(c, r, n, 3)
}

func randomValueTests(c *circuit.Circuit, r *rand.Rand, n, values int) []circuit.TwoPattern {
	out := make([]circuit.TwoPattern, n)
	for i := range out {
		out[i] = circuit.TwoPattern{
			P1: make([]tval.V, len(c.PIs)),
			P3: make([]tval.V, len(c.PIs)),
		}
		for k := range out[i].P1 {
			out[i].P1[k] = tval.V(r.Intn(values))
			out[i].P3[k] = tval.V(r.Intn(values))
		}
	}
	return out
}

// checkValues compares every line and plane of the batch with the
// scalar simulation of each test.
func checkValues(t *testing.T, c *circuit.Circuit, tests []circuit.TwoPattern) {
	t.Helper()
	b, err := Simulate(c, tests)
	if err != nil {
		t.Fatal(err)
	}
	for ti, tp := range tests {
		want := tp.Simulate(c)
		for id := range c.Lines {
			for p := 0; p < circuit.NumPlanes; p++ {
				if got := b.Value(id, p, ti); got != want[id].At(p) {
					t.Fatalf("test %s line %s plane %d: bitsim %v, scalar %v",
						tp, c.Lines[id].Name, p, got, want[id].At(p))
				}
			}
		}
	}
}

// TestBatchMatchesScalarSimulation checks the dual-rail planes against
// the scalar three-valued simulation on the embedded circuits and
// every synth profile, with fully specified and x-bearing tests.
func TestBatchMatchesScalarSimulation(t *testing.T) {
	circuits := []*circuit.Circuit{bench.S27(), bench.C17()}
	for _, name := range synth.ProfileNames() {
		circuits = append(circuits, synth.MustGenerate(synth.BenchmarkProfiles[name]))
	}
	for _, c := range circuits {
		t.Run(c.Name, func(t *testing.T) {
			r := rand.New(rand.NewSource(3))
			checkValues(t, c, randomTests(c, r, 64))
			checkValues(t, c, randomXTests(c, r, 64))
		})
	}
}

// detectsScalar is the scalar detection check: the test's simulation
// covers one of the fault's alternatives.
func detectsScalar(c *circuit.Circuit, tp circuit.TwoPattern, fc *robust.FaultConditions) bool {
	sim := tp.Simulate(c)
	for i := range fc.Alts {
		if fc.Alts[i].CoveredBy(sim) {
			return true
		}
	}
	return false
}

func TestCoversMatchesScalar(t *testing.T) {
	c := bench.S27()
	res, err := pathenum.Enumerate(c, pathenum.Config{Mode: pathenum.DistancePruned})
	if err != nil {
		t.Fatal(err)
	}
	kept, _ := robust.Screen(c, res.Faults)
	r := rand.New(rand.NewSource(7))
	tests := append(randomTests(c, r, 32), randomXTests(c, r, 32)...)
	b, err := Simulate(c, tests)
	if err != nil {
		t.Fatal(err)
	}
	for i := range kept {
		mask := b.Detects(&kept[i])
		for ti, tp := range tests {
			scalar := detectsScalar(c, tp, &kept[i])
			parallel := mask&(1<<uint(ti)) != 0
			if scalar != parallel {
				t.Fatalf("fault %s test %d: scalar %v, parallel %v",
					kept[i].Fault.Format(c), ti, scalar, parallel)
			}
		}
	}
}

func TestRunMatchesScalarRun(t *testing.T) {
	c := synth.MustGenerate(synth.BenchmarkProfiles["b09"])
	res, err := pathenum.Enumerate(c, pathenum.Config{MaxFaults: 600, Mode: pathenum.DistancePruned})
	if err != nil {
		t.Fatal(err)
	}
	kept, _ := robust.Screen(c, res.Faults)
	r := rand.New(rand.NewSource(11))
	// Random tests rarely hit long-path faults; mix in generated tests
	// so the comparison is non-vacuous, and let the set cross two
	// batch boundaries.
	j := justify.New(c, justify.Config{Seed: 13})
	tests := randomTests(c, r, 100)
	for i := range kept {
		if len(tests) >= 150 {
			break
		}
		if tp, ok := j.Justify(&kept[i].Alts[0]); ok {
			tests = append(tests, tp)
		}
	}
	// The scalar reference: each test simulated on its own, each fault
	// kept at its first detection.
	scalar := make([]int, len(kept))
	for i := range kept {
		scalar[i] = -1
		for ti, tp := range tests {
			if detectsScalar(c, tp, &kept[i]) {
				scalar[i] = ti
				break
			}
		}
	}
	parallel, err := Run(c, tests, kept)
	if err != nil {
		t.Fatal(err)
	}
	for i := range kept {
		if scalar[i] != parallel[i] {
			t.Fatalf("fault %d: scalar first-detection %d, parallel %d",
				i, scalar[i], parallel[i])
		}
	}
	sc := 0
	for _, d := range scalar {
		if d >= 0 {
			sc++
		}
	}
	pc, err := Count(c, tests, kept)
	if err != nil {
		t.Fatal(err)
	}
	if sc != pc {
		t.Fatalf("counts differ: %d vs %d", sc, pc)
	}
	if pc == 0 {
		t.Error("no detections; comparison vacuous")
	}
}

func TestSimulateErrors(t *testing.T) {
	c := bench.S27()
	if _, err := Simulate(c, nil); err == nil {
		t.Error("empty batch must be rejected")
	}
	r := rand.New(rand.NewSource(1))
	if _, err := Simulate(c, randomTests(c, r, 65)); err == nil {
		t.Error("oversized batch must be rejected")
	}
	// A test carrying x is simulated, not rejected, and matches the
	// scalar simulation.
	partial := randomTests(c, r, 2)
	partial[0].P1[0] = tval.X
	partial[1].P3[len(c.PIs)-1] = tval.X
	checkValues(t, c, partial)
	// A pattern of the wrong length is an error, not an out-of-range
	// read or a silently ignored value.
	short := randomTests(c, r, 2)
	short[1].P1 = short[1].P1[:len(c.PIs)-1]
	if _, err := Simulate(c, short); err == nil {
		t.Error("short pattern must be rejected")
	}
	long := randomTests(c, r, 2)
	long[0].P3 = append(long[0].P3, tval.One)
	if _, err := Simulate(c, long); err == nil {
		t.Error("long pattern must be rejected")
	}
	if _, err := Run(c, long, nil); err == nil {
		t.Error("Run must reject a long pattern")
	}
}

func TestSmallBatchMask(t *testing.T) {
	c := bench.S27()
	r := rand.New(rand.NewSource(2))
	tests := randomTests(c, r, 3)
	b, err := Simulate(c, tests)
	if err != nil {
		t.Fatal(err)
	}
	// A trivially satisfied cube must report exactly the batch mask.
	var q robust.Cube
	if got := b.Covers(&q); got != 0b111 {
		t.Errorf("empty cube coverage mask = %b, want 111", got)
	}
}

// TestBatchMatchesScalarOnRandomCircuits is a property check over many
// random circuit shapes, including duplicate gate inputs and XNOR
// parity chains.
func TestBatchMatchesScalarOnRandomCircuits(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		r := rand.New(rand.NewSource(seed))
		b := circuit.NewBuilder("rnd")
		var nets []int
		for i := 0; i < 6+r.Intn(6); i++ {
			nets = append(nets, b.AddInput(rname("i", i)))
		}
		types := []circuit.GateType{
			circuit.And, circuit.Nand, circuit.Or, circuit.Nor,
			circuit.Not, circuit.Buf, circuit.Xor, circuit.Xnor,
		}
		for g := 0; g < 20+r.Intn(30); g++ {
			gt := types[r.Intn(len(types))]
			a := nets[r.Intn(len(nets))]
			if gt == circuit.Not || gt == circuit.Buf {
				nets = append(nets, b.AddGate(gt, rname("g", g), a))
				continue
			}
			ins := []int{a}
			for k := 0; k < 1+r.Intn(3); k++ {
				ins = append(ins, nets[r.Intn(len(nets))]) // duplicates allowed
			}
			nets = append(nets, b.AddGate(gt, rname("g", g), ins...))
		}
		for _, n := range nets {
			b.MarkOutput(n)
		}
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		tests := randomTests(c, r, 64)
		batch, err := Simulate(c, tests)
		if err != nil {
			t.Fatal(err)
		}
		for ti, tp := range tests {
			want := tp.Simulate(c)
			for id := range c.Lines {
				for p := 0; p < circuit.NumPlanes; p++ {
					if got := batch.Value(id, p, ti); got != want[id].At(p) {
						t.Fatalf("seed %d test %d line %s plane %d: %v != %v",
							seed, ti, c.Lines[id].Name, p, got, want[id].At(p))
					}
				}
			}
		}
	}
}

func rname(p string, i int) string {
	return p + string(rune('a'+i/26)) + string(rune('a'+i%26))
}
