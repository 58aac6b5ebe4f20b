// Heuristics: compares the four test generation procedures of Section
// 2.2 of the paper — no compaction, arbitrary order, length-based
// order, value-based order — on one circuit (Tables 3 and 4 for a
// single row).
//
//	go run ./examples/heuristics [circuit]
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
)

func main() {
	name := "b03"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	p := experiments.DefaultParams()
	d, err := experiments.Prepare(name, p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d target faults in P0 (paths of length ≥ L_%d)\n\n",
		name, len(d.P0), d.I0)
	fmt.Printf("%-8s %10s %8s %12s %12s\n", "order", "detected", "tests", "sec.accepts", "time")
	for _, h := range core.Heuristics {
		res := core.Generate(d.Circuit, d.P0, core.Config{Heuristic: h, Seed: p.Seed})
		fmt.Printf("%-8s %6d/%3d %8d %12d %12v\n",
			h, res.DetectedCounts[0], len(d.P0), len(res.Tests), res.SecondaryAccepts,
			res.Elapsed.Round(1000000))
	}
	fmt.Println("\nAll three compaction orders should detect about as many faults as")
	fmt.Println("the uncompacted run with far fewer tests; value-based is the order")
	fmt.Println("the enrichment procedure builds on.")
}
