// Scanreport: the paper (like most path delay fault ATPG work)
// generates tests for the combinational logic, implicitly assuming
// enhanced scan. This example measures what that assumption costs on a
// standard scan design: how many of the generated two-pattern tests
// survive broadside (launch-on-capture) or skewed-load
// (launch-on-shift) application.
//
//	go run ./examples/scanreport
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/scan"
	"repro/internal/synth"
)

func main() {
	// A synthetic sequential circuit: the b09 stand-in with 8 of its
	// inputs driven by flip-flops.
	src, err := synth.SequentialSource(synth.BenchmarkProfiles["b09"], 8)
	if err != nil {
		log.Fatal(err)
	}
	nl, err := bench.Parse("b09-seq", strings.NewReader(src))
	if err != nil {
		log.Fatal(err)
	}
	c, st, err := nl.CombinationalWithState()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d real inputs + %d flip-flops\n\n", c.Name, st.NumPI, st.NumFF())

	d, err := experiments.PrepareCircuit(c, experiments.Params{NP: 1000, NP0: 200, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	er := core.Enrich(c, d.P0, d.P1, core.Config{Seed: 1})
	fmt.Printf("enrichment: %d tests, P0 %d/%d, P0∪P1 %d/%d (enhanced-scan assumption)\n\n",
		len(er.Tests), er.DetectedCounts[0], len(d.P0),
		er.DetectedCounts[0]+er.DetectedCounts[1], len(d.P0)+len(d.P1))

	stats, err := scan.Analyze(c, st, er.Tests, scan.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("application scheme   applicable tests\n")
	fmt.Printf("  enhanced scan      %4d / %d\n", stats.Enhanced, stats.Total)
	fmt.Printf("  broadside          %4d / %d\n", stats.Broadside, stats.Total)
	fmt.Printf("  skewed-load        %4d / %d\n", stats.SkewedLoad, stats.Total)
	fmt.Println("\nEvery test is applicable with enhanced scan; standard scan designs")
	fmt.Println("can apply only the survivors, which is why path delay ATPG assumes")
	fmt.Println("enhanced scan or constrains generation to the application scheme.")
}
