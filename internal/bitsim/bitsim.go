// Package bitsim is the fault-simulation kernel: up to 64 two-pattern
// tests are simulated through the circuit at once using bitwise
// operations, one bit position per test.
//
// Values are dual-rail encoded per plane: bit i of H is set when test
// i drives the net to 1, bit i of L when it drives it to 0; neither
// bit set means x. Each gate evaluates the planes exactly as the
// scalar three-valued (Kleene) logic of package tval does, so tests
// may carry x on any input and every value matches
// circuit.TwoPattern.Simulate. Run is the serial first-detect scan;
// faultsim.RunParallel shards the same batches across workers.
package bitsim

import (
	"fmt"
	"math/bits"

	"repro/internal/circuit"
	"repro/internal/robust"
	"repro/internal/tval"
)

// WordSize is the number of tests simulated per batch.
const WordSize = 64

// Batch holds the dual-rail planes of one batch of tests.
type Batch struct {
	c *circuit.Circuit
	n int // tests in this batch
	// h[p][net] bit i: test i drives value 1 on plane p.
	// l[p][net] bit i: test i drives value 0 on plane p.
	h, l [circuit.NumPlanes][]uint64
}

// Simulate simulates up to 64 tests in one pass. Every test must
// assign one value (0, 1 or x) per primary input in both patterns.
func Simulate(c *circuit.Circuit, tests []circuit.TwoPattern) (*Batch, error) {
	if len(tests) == 0 || len(tests) > WordSize {
		return nil, fmt.Errorf("bitsim: batch of %d tests (want 1..%d)", len(tests), WordSize)
	}
	if err := checkLengths(c, tests); err != nil {
		return nil, err
	}
	b := &Batch{c: c, n: len(tests)}
	for p := 0; p < circuit.NumPlanes; p++ {
		b.h[p] = make([]uint64, len(c.Lines))
		b.l[p] = make([]uint64, len(c.Lines))
	}
	for ti, tp := range tests {
		bit := uint64(1) << uint(ti)
		for i, pi := range c.PIs {
			set(b, 0, pi, tp.P1[i], bit)
			set(b, 2, pi, tp.P3[i], bit)
			if tp.P1[i] == tp.P3[i] {
				set(b, 1, pi, tp.P1[i], bit)
			}
		}
	}
	for _, gi := range c.TopoGates() {
		g := &c.Gates[gi]
		for p := 0; p < circuit.NumPlanes; p++ {
			b.evalGate(g, p)
		}
	}
	return b, nil
}

// checkLengths reports the first test whose patterns do not match the
// circuit's input count.
func checkLengths(c *circuit.Circuit, tests []circuit.TwoPattern) error {
	for ti, tp := range tests {
		if len(tp.P1) != len(c.PIs) || len(tp.P3) != len(c.PIs) {
			return fmt.Errorf("bitsim: test %d has %d/%d input values, want %d",
				ti, len(tp.P1), len(tp.P3), len(c.PIs))
		}
	}
	return nil
}

func set(b *Batch, plane, net int, v tval.V, bit uint64) {
	if v == tval.One {
		b.h[plane][net] |= bit
	} else if v == tval.Zero {
		b.l[plane][net] |= bit
	}
}

func (b *Batch) evalGate(g *circuit.Gate, p int) {
	c := b.c
	h, l := b.h[p], b.l[p]
	var oh, ol uint64
	switch g.Type {
	case circuit.Not:
		net := c.Lines[g.In[0]].Net
		oh, ol = l[net], h[net]
	case circuit.Buf:
		net := c.Lines[g.In[0]].Net
		oh, ol = h[net], l[net]
	case circuit.And, circuit.Nand:
		oh, ol = ^uint64(0), 0
		for _, in := range g.In {
			net := c.Lines[in].Net
			oh &= h[net]
			ol |= l[net]
		}
		if g.Type == circuit.Nand {
			oh, ol = ol, oh
		}
	case circuit.Or, circuit.Nor:
		oh, ol = 0, ^uint64(0)
		for _, in := range g.In {
			net := c.Lines[in].Net
			oh |= h[net]
			ol &= l[net]
		}
		if g.Type == circuit.Nor {
			oh, ol = ol, oh
		}
	case circuit.Xor, circuit.Xnor:
		oh, ol = 0, ^uint64(0) // parity starts at 0
		for _, in := range g.In {
			net := c.Lines[in].Net
			nh := (oh & l[net]) | (ol & h[net])
			nl := (oh & h[net]) | (ol & l[net])
			oh, ol = nh, nl
		}
		if g.Type == circuit.Xnor {
			oh, ol = ol, oh
		}
	}
	h[g.Out], l[g.Out] = oh, ol
}

// Value returns the simulated value of a line on a plane for one test.
func (b *Batch) Value(line, plane, test int) tval.V {
	net := b.c.Lines[line].Net
	bit := uint64(1) << uint(test)
	switch {
	case b.h[plane][net]&bit != 0:
		return tval.One
	case b.l[plane][net]&bit != 0:
		return tval.Zero
	}
	return tval.X
}

// Covers returns the mask of tests in the batch whose simulated values
// satisfy every requirement of the cube.
func (b *Batch) Covers(cube *robust.Cube) uint64 {
	mask := batchMask(b.n)
	for i, net := range cube.Nets {
		req := cube.Vals[i]
		for p := 0; p < circuit.NumPlanes && mask != 0; p++ {
			switch req.At(p) {
			case tval.One:
				mask &= b.h[p][net]
			case tval.Zero:
				mask &= b.l[p][net]
			}
		}
		if mask == 0 {
			return 0
		}
	}
	return mask
}

// Detects returns the mask of tests detecting the fault (covering any
// alternative).
func (b *Batch) Detects(fc *robust.FaultConditions) uint64 {
	var mask uint64
	for i := range fc.Alts {
		mask |= b.Covers(&fc.Alts[i])
	}
	return mask
}

func batchMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}

// Run returns, for each fault, the index of the first detecting test,
// or -1. Detected faults are skipped in later batches, and the scan
// stops once every fault is detected. All tests are length-checked up
// front, so a malformed test is reported even past that point.
func Run(c *circuit.Circuit, tests []circuit.TwoPattern, fcs []robust.FaultConditions) ([]int, error) {
	if err := checkLengths(c, tests); err != nil {
		return nil, err
	}
	firstDet := make([]int, len(fcs))
	for i := range firstDet {
		firstDet[i] = -1
	}
	remaining := len(fcs)
	for base := 0; base < len(tests) && remaining > 0; base += WordSize {
		b, err := Simulate(c, tests[base:min(base+WordSize, len(tests))])
		if err != nil {
			return nil, err
		}
		for fi := range fcs {
			if firstDet[fi] >= 0 {
				continue
			}
			if mask := b.Detects(&fcs[fi]); mask != 0 {
				firstDet[fi] = base + bits.TrailingZeros64(mask)
				remaining--
			}
		}
	}
	return firstDet, nil
}

// Count returns how many faults the test set detects.
func Count(c *circuit.Circuit, tests []circuit.TwoPattern, fcs []robust.FaultConditions) (int, error) {
	first, err := Run(c, tests, fcs)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, d := range first {
		if d >= 0 {
			n++
		}
	}
	return n, nil
}
