package circuit

import "repro/internal/tval"

// NumPlanes is the number of simulation planes of a two-pattern test:
// first pattern, intermediate, second pattern.
const NumPlanes = 3

// Simulator performs incremental three-valued simulation of a circuit
// on the three planes of a two-pattern test.
//
// Assignments are monotone: values only move from x to a specified
// value, so propagation from a changed primary input touches exactly
// the newly specified nets. Every Assign appends to an undo log;
// RollbackTo restores an earlier state, which makes speculative probing
// ("would assigning 0 to this input conflict?") cheap.
type Simulator struct {
	c   *Circuit
	val [NumPlanes][]tval.V

	fanout [][]int // net line ID -> consumer gate indices
	level  []int   // gate index -> topological level

	undo []undoEntry

	// propagation scratch, reused across calls
	buckets [][]int
	stamp   []int
	epoch   int
	changed []int
}

type undoEntry struct {
	plane int
	net   int
	old   tval.V
}

// Mark is a point in the undo log, returned by Snapshot.
type Mark int

// NewSimulator creates a simulator with all values x.
func NewSimulator(c *Circuit) *Simulator {
	s := &Simulator{c: c}
	for p := range s.val {
		s.val[p] = make([]tval.V, len(c.Lines))
	}
	s.fanout = make([][]int, len(c.Lines))
	for gi := range c.Gates {
		for _, in := range c.Gates[gi].In {
			net := c.Lines[in].Net
			s.fanout[net] = append(s.fanout[net], gi)
		}
	}
	s.level = make([]int, len(c.Gates))
	maxLevel := 0
	for _, gi := range c.TopoGates() {
		lv := 0
		for _, in := range c.Gates[gi].In {
			net := c.Lines[in].Net
			if g := c.Lines[net].Gate; g >= 0 && s.level[g]+1 > lv {
				lv = s.level[g] + 1
			}
		}
		s.level[gi] = lv
		if lv > maxLevel {
			maxLevel = lv
		}
	}
	s.buckets = make([][]int, maxLevel+1)
	s.stamp = make([]int, len(c.Gates))
	for i := range s.stamp {
		s.stamp[i] = -1
	}
	s.Reset()
	return s
}

// Circuit returns the simulated circuit.
func (s *Simulator) Circuit() *Circuit { return s.c }

// Reset sets every value to x and clears the undo log.
func (s *Simulator) Reset() {
	for p := range s.val {
		for i := range s.val[p] {
			s.val[p][i] = tval.X
		}
	}
	s.undo = s.undo[:0]
}

// Value returns the simulated value of a line on one plane.
func (s *Simulator) Value(line, plane int) tval.V {
	return s.val[plane][s.c.Lines[line].Net]
}

// Triple returns the simulated value triple of a line.
func (s *Simulator) Triple(line int) tval.Triple {
	net := s.c.Lines[line].Net
	return tval.NewTriple(s.val[0][net], s.val[1][net], s.val[2][net])
}

// Snapshot returns a mark for RollbackTo.
func (s *Simulator) Snapshot() Mark { return Mark(len(s.undo)) }

// RollbackTo undoes every assignment made after the mark.
func (s *Simulator) RollbackTo(m Mark) {
	for i := len(s.undo) - 1; i >= int(m); i-- {
		e := s.undo[i]
		s.val[e.plane][e.net] = e.old
	}
	s.undo = s.undo[:int(m)]
}

// ClearUndo discards undo history (states before this call can no
// longer be rolled back to).
func (s *Simulator) ClearUndo() { s.undo = s.undo[:0] }

// Assign sets the value of a primary-input net on one plane and
// propagates the consequences. It returns the net IDs whose value
// changed on that plane (including pi itself); the slice is valid until
// the next Assign. Assigning the already-present value is a no-op.
//
// Assignments must be monotone: changing a specified value to a
// different specified value panics, as the incremental propagation
// only supports x → 0/1 refinement.
func (s *Simulator) Assign(pi, plane int, v tval.V) []int {
	vals := s.val[plane]
	old := vals[pi]
	if old == v {
		return s.changed[:0]
	}
	if old != tval.X {
		panic("circuit: non-monotone simulator assignment")
	}
	s.changed = s.changed[:0]
	s.undo = append(s.undo, undoEntry{plane, pi, old})
	vals[pi] = v
	s.changed = append(s.changed, pi)

	s.epoch++
	maxLv := -1
	enqueue := func(net int) {
		for _, gi := range s.fanout[net] {
			if s.stamp[gi] != s.epoch {
				s.stamp[gi] = s.epoch
				lv := s.level[gi]
				s.buckets[lv] = append(s.buckets[lv], gi)
				if lv > maxLv {
					maxLv = lv
				}
			}
		}
	}
	enqueue(pi)
	for lv := 0; lv <= maxLv; lv++ {
		for _, gi := range s.buckets[lv] {
			g := &s.c.Gates[gi]
			nv := s.evalGate(g, plane)
			out := g.Out
			if nv != vals[out] {
				s.undo = append(s.undo, undoEntry{plane, out, vals[out]})
				vals[out] = nv
				s.changed = append(s.changed, out)
				enqueue(out)
			}
		}
		s.buckets[lv] = s.buckets[lv][:0]
	}
	// Every bucket is empty again: a gate only enqueues its fanout,
	// whose levels are higher, so maxLv grows ahead of the drain and
	// no bucket at or below it is filled after it was drained.
	return s.changed
}

func (s *Simulator) evalGate(g *Gate, plane int) tval.V {
	vals := s.val[plane]
	switch g.Type {
	case Not:
		return vals[s.c.Lines[g.In[0]].Net].Not()
	case Buf:
		return vals[s.c.Lines[g.In[0]].Net]
	case And, Nand:
		v := tval.One
		for _, in := range g.In {
			v = tval.And(v, vals[s.c.Lines[in].Net])
			if v == tval.Zero {
				break
			}
		}
		if g.Type == Nand {
			return v.Not()
		}
		return v
	case Or, Nor:
		v := tval.Zero
		for _, in := range g.In {
			v = tval.Or(v, vals[s.c.Lines[in].Net])
			if v == tval.One {
				break
			}
		}
		if g.Type == Nor {
			return v.Not()
		}
		return v
	default: // Xor, Xnor
		v := tval.Zero
		for _, in := range g.In {
			v = tval.Xor(v, vals[s.c.Lines[in].Net])
			if v == tval.X {
				return tval.X
			}
		}
		if g.Type == Xnor {
			return v.Not()
		}
		return v
	}
}

// SimulateTriples fully simulates a two-pattern test given by the
// first- and second-pattern values of the primary inputs (in PIs
// order). The intermediate plane of a primary input is its pattern
// value when both patterns agree and are specified, x otherwise.
// The result maps every line ID to its value triple.
func SimulateTriples(c *Circuit, p1, p3 []tval.V) []tval.Triple {
	if len(p1) != len(c.PIs) || len(p3) != len(c.PIs) {
		panic("circuit: SimulateTriples pattern length mismatch")
	}
	var planes [NumPlanes][]tval.V
	for p := range planes {
		planes[p] = make([]tval.V, len(c.Lines))
		for i := range planes[p] {
			planes[p][i] = tval.X
		}
	}
	for i, pi := range c.PIs {
		planes[0][pi] = p1[i]
		planes[2][pi] = p3[i]
		if p1[i] != tval.X && p1[i] == p3[i] {
			planes[1][pi] = p1[i]
		}
	}
	for p := range planes {
		evalPlane(c, planes[p])
	}
	out := make([]tval.Triple, len(c.Lines))
	for i := range c.Lines {
		net := c.Lines[i].Net
		out[i] = tval.NewTriple(planes[0][net], planes[1][net], planes[2][net])
	}
	return out
}

func evalPlane(c *Circuit, vals []tval.V) {
	var in []tval.V
	for _, gi := range c.TopoGates() {
		g := &c.Gates[gi]
		in = in[:0]
		for _, l := range g.In {
			in = append(in, vals[c.Lines[l].Net])
		}
		vals[g.Out] = g.Type.Eval(in)
	}
}
