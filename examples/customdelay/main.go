// Customdelay: the paper notes that "other delay models can be
// accommodated by the procedure we use". This example runs the flow
// on s27 under a weighted delay model (NAND/NOR cost 3, other gates 2,
// wires and inverters 1) and shows how the longest-path set — and
// therefore the P0/P1 partition — changes relative to the unit model.
//
//	go run ./examples/customdelay
package main

import (
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/faults"
	"repro/internal/pathenum"
	"repro/internal/robust"
)

func main() {
	c := bench.S27()
	weighted := delay.PerGateType{
		Weights: map[circuit.GateType]int{
			circuit.Nand: 3, circuit.Nor: 3,
			circuit.And: 2, circuit.Or: 2,
			circuit.Not: 1, circuit.Buf: 1,
		},
		Wire: 1,
	}

	for _, m := range []struct {
		name  string
		model delay.Model
	}{
		{"unit (paper default)", delay.Unit{}},
		{"weighted (NAND/NOR=3, AND/OR=2, INV/wire=1)", weighted},
	} {
		res, err := pathenum.Enumerate(c, pathenum.Config{Mode: pathenum.DistancePruned, Model: m.model})
		if err != nil {
			log.Fatal(err)
		}
		kept, eliminated := robust.Screen(c, res.Faults)
		raw := make([]faults.Fault, len(kept))
		for i := range kept {
			raw[i] = kept[i].Fault
		}
		p0f, p1f, i0 := faults.Partition(raw, 10)
		p0 := kept[:len(p0f)]
		p1 := kept[len(p0f):]
		_ = p1f

		fmt.Printf("delay model: %s\n", m.name)
		fmt.Printf("  longest path length %d, %d faults kept (%d undetectable), i0=%d, |P0|=%d, |P1|=%d\n",
			res.Faults[0].Length, len(kept), eliminated, i0, len(p0), len(p1))
		fmt.Printf("  longest paths:\n")
		for i := range kept {
			if kept[i].Fault.Length != res.Faults[0].Length {
				continue
			}
			fmt.Printf("    %s\n", kept[i].Fault.Format(c))
		}
		er := core.Enrich(c, p0, p1, core.Config{Seed: 1})
		fmt.Printf("  enrichment: %d tests, P0 %d/%d, P0∪P1 %d/%d\n\n",
			len(er.Tests), er.DetectedCounts[0], len(p0),
			er.DetectedCounts[0]+er.DetectedCounts[1], len(p0)+len(p1))
	}
}
