// Package faultsim simulates two-pattern tests against path delay
// faults under the robust detection criterion.
//
// Fault simulation of a test set runs on one kernel: bitsim's
// word-parallel batches, scanned serially by bitsim.Run or sharded
// across workers by RunParallel with byte-identical results.
// DetectsSim and Detects check one test's scalar simulation against
// one fault; the ATPG's per-test fault dropping, diagnosis and static
// compaction use them.
//
// A test robustly detects a fault iff the values it assigns cover one
// of the fault's A(p) alternatives (Section 2.1 of the DATE 2002
// paper: assigning the values in A(p) is necessary and sufficient).
// The three-plane simulation is conservative about hazards, so a
// "stable" requirement is only satisfied by a provably glitch-free
// signal.
package faultsim

import (
	"repro/internal/circuit"
	"repro/internal/robust"
	"repro/internal/tval"
)

// DetectsSim reports whether precomputed simulation triples (indexed
// by line ID) cover one of the fault's alternatives.
func DetectsSim(fc *robust.FaultConditions, sim []tval.Triple) bool {
	for i := range fc.Alts {
		if fc.Alts[i].CoveredBy(sim) {
			return true
		}
	}
	return false
}

// Detects simulates one test and reports whether it detects the fault.
func Detects(c *circuit.Circuit, test circuit.TwoPattern, fc *robust.FaultConditions) bool {
	return DetectsSim(fc, test.Simulate(c))
}
