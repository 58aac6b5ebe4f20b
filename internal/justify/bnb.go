package justify

import (
	"sort"

	"repro/internal/circuit"
	"repro/internal/robust"
	"repro/internal/tval"
)

// BnBConfig parameterizes the branch-and-bound justifier.
type BnBConfig struct {
	// MaxBacktracks bounds the search; 0 means the default of 20000.
	// When the bound is hit the search gives up without a proof.
	MaxBacktracks int
	// DisableImplicationSeed turns off seeding from the cube's
	// implications (ablation).
	DisableImplicationSeed bool
}

// BnB is a complete, deterministic justification procedure: a
// backtracking search over the pattern values of the primary inputs in
// the support cone of the requirements. The paper points out that the
// run-to-run variations of the simulation-based procedure "can be
// eliminated by using a branch-and-bound procedure instead" — this is
// that procedure.
//
// Unlike Justifier, BnB either finds a test, proves that none exists
// (no fully specified two-pattern test covers the cube), or gives up
// at its backtrack bound.
type BnB struct {
	c   *circuit.Circuit
	sim *circuit.Simulator
	im  *robust.Implier
	cfg BnBConfig

	req     []tval.Triple
	reqList []int

	backtracks int
	stats      BnBStats
}

// BnBStats accumulates search effort.
type BnBStats struct {
	Calls, Successes, Proofs, Aborts int
	Nodes, Backtracks                int
}

// NewBnB creates a branch-and-bound justifier.
func NewBnB(c *circuit.Circuit, cfg BnBConfig) *BnB {
	if cfg.MaxBacktracks == 0 {
		cfg.MaxBacktracks = 20000
	}
	b := &BnB{
		c:   c,
		sim: circuit.NewSimulator(c),
		im:  robust.NewImplier(c),
		cfg: cfg,
		req: make([]tval.Triple, len(c.Lines)),
	}
	for i := range b.req {
		b.req[i] = tval.TX
	}
	return b
}

// Stats returns accumulated counters.
func (b *BnB) Stats() BnBStats { return b.stats }

// Implier returns the search's implier; see Justifier.Implier.
func (b *BnB) Implier() *robust.Implier { return b.im }

// Justify searches exhaustively for a test covering the cube.
// ok reports success. When ok is false, proven reports whether the
// search was exhaustive: proven=true means no fully specified
// two-pattern test covers the cube (the fault combination is
// untestable), proven=false means the backtrack bound was hit.
func (b *BnB) Justify(cube *robust.Cube) (test circuit.TwoPattern, ok, proven bool) {
	if !b.cfg.DisableImplicationSeed && !b.im.ImplyConsistent(cube) {
		b.stats.Calls++
		b.stats.Proofs++
		return test, false, true
	}
	return b.JustifyImplied(cube)
}

// JustifyImplied is Justify for a cube whose implication fixpoint the
// implier already holds, free of conflict; see
// Justifier.JustifyImplied.
func (b *BnB) JustifyImplied(cube *robust.Cube) (test circuit.TwoPattern, ok, proven bool) {
	b.stats.Calls++
	defer func() {
		for _, net := range b.reqList {
			b.req[net] = tval.TX
		}
		b.reqList = b.reqList[:0]
	}()
	for i, net := range cube.Nets {
		b.req[net] = cube.Vals[i]
		b.reqList = append(b.reqList, net)
	}
	b.sim.Reset()
	b.backtracks = 0

	if !b.cfg.DisableImplicationSeed {
		for _, pi := range b.c.PIs {
			for _, plane := range []int{0, 2} {
				if v := b.im.Value(pi, plane); v != tval.X {
					if b.apply(pi, plane, v) {
						b.stats.Proofs++
						return test, false, true
					}
				}
			}
		}
	}

	// Decision positions: both pattern planes of every support-cone
	// input, most-connected inputs first for stronger early pruning.
	cone := b.c.SupportPIs(cube.Nets)
	positions := make([]position, 0, 2*len(cone))
	for _, pi := range cone {
		positions = append(positions, position{pi, 0}, position{pi, 2})
	}
	sort.SliceStable(positions, func(i, j int) bool {
		return len(b.c.Lines[positions[i].net].Succs) > len(b.c.Lines[positions[j].net].Succs)
	})

	ok, exhausted := b.search(cube, positions)
	if ok {
		b.stats.Successes++
		return b.extract(), true, false
	}
	if exhausted {
		b.stats.Proofs++
		return test, false, true
	}
	b.stats.Aborts++
	return test, false, false
}

type position struct {
	net, plane int
}

// search assigns the remaining positions depth-first. It returns
// (found, exhausted): exhausted is false when the backtrack bound cut
// the search.
func (b *BnB) search(cube *robust.Cube, positions []position) (found, exhausted bool) {
	b.stats.Nodes++
	// Skip already specified positions (implications, earlier forces).
	for len(positions) > 0 && b.sim.Value(positions[0].net, positions[0].plane) != tval.X {
		positions = positions[1:]
	}
	if len(positions) == 0 {
		return b.coveredAfterFill(cube), true
	}
	pos := positions[0]
	exhausted = true
	for _, v := range []tval.V{tval.Zero, tval.One} {
		m := b.sim.Snapshot()
		if !b.apply(pos.net, pos.plane, v) {
			f, ex := b.search(cube, positions[1:])
			if f {
				return true, true
			}
			if !ex {
				exhausted = false
			}
		}
		b.sim.RollbackTo(m)
		b.backtracks++
		b.stats.Backtracks++
		if b.backtracks > b.cfg.MaxBacktracks {
			return false, false
		}
	}
	return false, exhausted
}

// apply assigns a pattern position (with the stable-input intermediate
// coupling) and reports whether a requirement is contradicted.
func (b *BnB) apply(pi, plane int, v tval.V) (conflict bool) {
	if b.sim.Value(pi, plane) == v {
		return false
	}
	if b.check(b.sim.Assign(pi, plane, v), plane) {
		return true
	}
	other := 2 - plane
	if b.sim.Value(pi, other) == v && b.sim.Value(pi, 1) == tval.X {
		if b.check(b.sim.Assign(pi, 1, v), 1) {
			return true
		}
	}
	return false
}

func (b *BnB) check(changed []int, plane int) (conflict bool) {
	for _, n := range changed {
		r := b.req[n]
		if r == tval.TX {
			continue
		}
		if want := r.At(plane); want != tval.X && b.sim.Value(n, plane) != want {
			return true
		}
	}
	return false
}

// coveredAfterFill checks coverage once every cone position is
// specified. Inputs outside the cone cannot influence required nets;
// they are filled with stable zeros in the extracted test.
func (b *BnB) coveredAfterFill(cube *robust.Cube) bool {
	for i, net := range cube.Nets {
		if !cube.Vals[i].Covers(b.sim.Triple(net)) {
			return false
		}
	}
	return true
}

func (b *BnB) extract() circuit.TwoPattern {
	t := circuit.TwoPattern{
		P1: make([]tval.V, len(b.c.PIs)),
		P3: make([]tval.V, len(b.c.PIs)),
	}
	for i, net := range b.c.PIs {
		v1, v3 := b.sim.Value(net, 0), b.sim.Value(net, 2)
		if v1 == tval.X {
			v1 = tval.Zero
		}
		if v3 == tval.X {
			v3 = tval.Zero
		}
		t.P1[i], t.P3[i] = v1, v3
	}
	return t
}
