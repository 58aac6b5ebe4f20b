package experiments

import (
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/robust"
)

// SweepRow is one point of the N_P0 sensitivity sweep: how the
// enrichment procedure behaves as the size of the first target set
// grows. The paper's knob: "the sizes of P0 and P1 can be adjusted to
// control the test generation effort".
type SweepRow struct {
	NP0         int
	P0Size      int
	P1Size      int
	Tests       int
	P0Detected  int
	AllDetected int
	Elapsed     time.Duration
}

// SweepNP0 repartitions a screened fault population at each N_P0 value
// and runs the enrichment procedure, returning one row per point.
func SweepNP0(c *circuit.Circuit, kept []robust.FaultConditions, np0s []int, seed int64) []SweepRow {
	raw := make([]faults.Fault, len(kept))
	for i := range kept {
		raw[i] = kept[i].Fault
	}
	rows := make([]SweepRow, 0, len(np0s))
	for _, np0 := range np0s {
		p0f, _, _ := faults.Partition(raw, np0)
		p0 := kept[:len(p0f)]
		p1 := kept[len(p0f):]
		er := core.Enrich(c, p0, p1, core.Config{Seed: seed})
		rows = append(rows, SweepRow{
			NP0:         np0,
			P0Size:      len(p0),
			P1Size:      len(p1),
			Tests:       len(er.Tests),
			P0Detected:  er.DetectedCounts[0],
			AllDetected: er.DetectedCounts[0] + er.DetectedCounts[1],
			Elapsed:     er.Elapsed,
		})
	}
	return rows
}
