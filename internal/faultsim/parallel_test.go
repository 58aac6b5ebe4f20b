package faultsim

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/bitsim"
	"repro/internal/circuit"
	"repro/internal/justify"
	"repro/internal/pathenum"
	"repro/internal/robust"
	"repro/internal/synth"
	"repro/internal/tval"
)

// simSetup enumerates and screens the faults of a synthetic benchmark
// and builds a deterministic random test set.
func simSetup(tb testing.TB, profile string, np, nTests int) (*circuit.Circuit, []circuit.TwoPattern, []robust.FaultConditions) {
	tb.Helper()
	c, err := synth.Benchmark(profile)
	if err != nil {
		tb.Fatal(err)
	}
	kept := screenedFaults(tb, c, np)
	rng := rand.New(rand.NewSource(7))
	tests := make([]circuit.TwoPattern, nTests)
	for i := range tests {
		tests[i] = randomTest(c, rng)
	}
	return c, tests, kept
}

func screenedFaults(tb testing.TB, c *circuit.Circuit, np int) []robust.FaultConditions {
	tb.Helper()
	res, err := pathenum.Enumerate(c, pathenum.Config{MaxFaults: np, Mode: pathenum.DistancePruned})
	if err != nil {
		tb.Fatal(err)
	}
	kept, _ := robust.Screen(c, res.Faults)
	return kept
}

// runNaive is the scalar reference: every test is simulated on its own
// with TwoPattern.Simulate and checked with DetectsSim against every
// fault not yet detected.
func runNaive(c *circuit.Circuit, tests []circuit.TwoPattern, fcs []robust.FaultConditions) []int {
	firstDet := make([]int, len(fcs))
	for i := range firstDet {
		firstDet[i] = -1
	}
	for ti := range tests {
		sim := tests[ti].Simulate(c)
		for fi := range fcs {
			if firstDet[fi] < 0 && DetectsSim(&fcs[fi], sim) {
				firstDet[fi] = ti
			}
		}
	}
	return firstDet
}

// diffTests returns n tests alternating random tests with tests
// justified for the circuit's faults, so detections land on both sides
// of every batch boundary. Random tests rarely detect long paths; the
// justified ones keep the comparison non-vacuous.
func diffTests(c *circuit.Circuit, fcs []robust.FaultConditions, n int, rng *rand.Rand) []circuit.TwoPattern {
	j := justify.New(c, justify.Config{Seed: 13})
	var justified []circuit.TwoPattern
	for i := 0; i < len(fcs) && len(justified) < n/2; i += 1 + len(fcs)/n {
		if tp, ok := j.Justify(&fcs[i].Alts[0]); ok {
			justified = append(justified, tp)
		}
	}
	tests := make([]circuit.TwoPattern, n)
	for i := range tests {
		if i%2 == 1 && len(justified) > 0 {
			tests[i], justified = justified[0], justified[1:]
		} else {
			tests[i] = randomTest(c, rng)
		}
	}
	return tests
}

// withXs returns copies of the tests with about one input value in 20
// replaced by x: enough x to reach every gate type's x rules, few
// enough that long paths stay detectable.
func withXs(tests []circuit.TwoPattern, rng *rand.Rand) []circuit.TwoPattern {
	out := make([]circuit.TwoPattern, len(tests))
	for i, tp := range tests {
		out[i] = tp.Clone()
		for k := range out[i].P1 {
			if rng.Intn(20) == 0 {
				out[i].P1[k] = tval.X
			}
			if rng.Intn(20) == 0 {
				out[i].P3[k] = tval.X
			}
		}
	}
	return out
}

// TestRunMatchesNaive is the differential test of the fault-simulation
// kernel: RunParallel must return the scalar reference's first-detect
// vector for every circuit, test count (around the 64-test batch
// boundaries), worker count and x-bearing test set.
func TestRunMatchesNaive(t *testing.T) {
	circuits := []*circuit.Circuit{bench.S27(), bench.C17()}
	for _, name := range synth.ProfileNames() {
		circuits = append(circuits, synth.MustGenerate(synth.BenchmarkProfiles[name]))
	}
	for _, c := range circuits {
		t.Run(c.Name, func(t *testing.T) {
			fcs := screenedFaults(t, c, 300)
			rng := rand.New(rand.NewSource(5))
			full := diffTests(c, fcs, 130, rng)
			for _, tests := range [][]circuit.TwoPattern{full, withXs(full, rng)} {
				detected := 0
				for _, n := range []int{1, 63, 64, 65, 130} {
					want := runNaive(c, tests[:n], fcs)
					for _, workers := range []int{0, 1, 2, 3, 8} {
						got, err := RunParallel(context.Background(), c, tests[:n], fcs, workers)
						if err != nil {
							t.Fatalf("%d tests, workers=%d: %v", n, workers, err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%d tests, workers=%d: first-detect vector diverges from the scalar reference", n, workers)
						}
					}
					for _, d := range want {
						if d >= 0 {
							detected++
						}
					}
				}
				if detected == 0 {
					t.Errorf("no detections among %d faults; comparison vacuous", len(fcs))
				}
			}
		})
	}
}

func TestRunParallelMatchesSerial(t *testing.T) {
	c, tests, fcs := simSetup(t, "s641", 400, 64)
	want, err := bitsim.Run(c, tests, fcs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 4, 8} {
		got, err := RunParallel(context.Background(), c, tests, fcs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: parallel result diverges from serial", workers)
		}
	}
	n, err := CountParallel(context.Background(), c, tests, fcs, 4)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := bitsim.Count(c, tests, fcs)
	if err != nil {
		t.Fatal(err)
	}
	if n != want2 {
		t.Errorf("CountParallel = %d, want %d", n, want2)
	}
}

// A test with the wrong number of input values is reported the same
// way for every worker count, even when it sits after the point where
// every fault is already detected.
func TestRunParallelRejectsShortTest(t *testing.T) {
	c, tests, fcs := simSetup(t, "s641", 400, 130)
	tests[129].P3 = tests[129].P3[:3]
	var msgs []string
	for _, workers := range []int{1, 4} {
		_, err := RunParallel(context.Background(), c, tests, fcs, workers)
		if err == nil {
			t.Fatalf("workers=%d: short test accepted", workers)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] || !strings.Contains(msgs[0], "test 129") {
		t.Errorf("errors differ or miss the test index: %q", msgs)
	}
}

func TestRunParallelCanceled(t *testing.T) {
	c, tests, fcs := simSetup(t, "s641", 400, 16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunParallel(ctx, c, tests, fcs, 4); err != context.Canceled {
		t.Errorf("canceled RunParallel err = %v, want context.Canceled", err)
	}
	// The serial path must also observe cancellation.
	if _, err := RunParallel(ctx, c, tests, fcs, 1); err != context.Canceled {
		t.Errorf("canceled serial path err = %v, want context.Canceled", err)
	}
}

func TestRunParallelEmpty(t *testing.T) {
	c, tests, fcs := simSetup(t, "s641", 400, 4)
	if got, err := RunParallel(context.Background(), c, nil, fcs, 4); err != nil || len(got) != len(fcs) {
		t.Errorf("no tests: got %d results, err %v", len(got), err)
	}
	if got, err := RunParallel(context.Background(), c, tests, nil, 4); err != nil || len(got) != 0 {
		t.Errorf("no faults: got %d results, err %v", len(got), err)
	}
}

// BenchmarkRunParallel4 exercises the sharded path end to end; on
// multi-core hosts it parallelizes the batch simulation and the fault
// scan.
func BenchmarkRunParallel4(b *testing.B) {
	c, tests, fcs := simSetup(b, "s1423", 1000, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunParallel(context.Background(), c, tests, fcs, 4); err != nil {
			b.Fatal(err)
		}
	}
}
