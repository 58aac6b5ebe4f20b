// Quickstart: the full path delay fault flow on the paper's running
// example, ISCAS-89 s27.
//
//	go run ./examples/quickstart
//
// It walks exactly the artifacts of the DATE 2002 paper's Sections 2
// and 3: the combinational logic of s27 (Figure 1), the necessary
// value assignments A(p) of the slow-to-rise fault on path
// (2,9,10,15) (the paper's example), the budgeted path enumeration
// (Table 1), the P0/P1 partition, and the enrichment run.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/pathenum"
	"repro/internal/robust"
)

func main() {
	c := bench.S27()
	st := c.Stats()
	fmt.Printf("s27 combinational logic: %d inputs, %d outputs, %d gates, %d lines (branches: %d), depth %d\n\n",
		st.PIs, st.POs, st.Gates, st.Lines, st.Branches, st.Depth)

	// The paper's A(p) example: the slow-to-rise fault on the path the
	// paper numbers (2,9,10,15) — signals G1 → G12 → (branch) → G13.
	path := []int{
		c.LineByName("G1").ID,
		c.LineByName("G12").ID,
		c.LineByName("G12->G13").ID,
		c.LineByName("G13").ID,
	}
	f := faults.Fault{Path: path, Dir: faults.SlowToRise, Length: len(path)}
	alts := robust.Conditions(c, &f)
	fmt.Printf("A(p) for %s:\n  %s\n\n", f.Format(c), alts[0].Format(c))

	// Budgeted enumeration with the paper's Table 1 budget: 20 paths.
	res, err := pathenum.Enumerate(c, pathenum.Config{MaxFaults: 40, Mode: pathenum.Moderate})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("budgeted enumeration kept %d paths of lengths %d..%d (Table 1 keeps 18 of 7..10)\n\n",
		len(res.Faults)/2, res.Faults[len(res.Faults)-1].Length, res.Faults[0].Length)

	// Full flow: enumerate everything (s27 is tiny), screen, partition,
	// enrich.
	d, err := experiments.PrepareCircuit(c, experiments.Params{NP: 0, NP0: 10, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("screened: %d faults kept, %d undetectable eliminated; |P0|=%d |P1|=%d (i0=%d)\n",
		len(d.P0)+len(d.P1), d.Eliminated, len(d.P0), len(d.P1), d.I0)

	er := core.Enrich(c, d.P0, d.P1, core.Config{Seed: 1})
	fmt.Printf("enrichment: %d tests, P0 %d/%d, P0∪P1 %d/%d\n\n",
		len(er.Tests), er.DetectedCounts[0], len(d.P0),
		er.DetectedCounts[0]+er.DetectedCounts[1], len(d.P0)+len(d.P1))

	fmt.Println("generated two-pattern tests (inputs G0 G1 G2 G3 G5 G6 G7):")
	for i, tp := range er.Tests {
		fmt.Printf("  t%d: %s\n", i+1, tp)
	}
	_ = os.Stdout
}
