// Package justify implements the simulation-based justification
// procedure of Section 2.1 of the DATE 2002 paper.
//
// Given a requirement cube (the union of A(p) over the faults a test
// must detect), the procedure maintains a value triple on every
// primary input, initially xxx, and alternates two phases:
//
//   - Necessary values: for every unspecified pattern position β_ij of
//     a primary input, tentatively assign 0 and 1; a value whose
//     three-valued propagation contradicts a required value is ruled
//     out. If both values are ruled out the justification fails; if
//     one is, the other is assigned permanently. This repeats until no
//     new values are found.
//
//   - Decision: if some input has exactly one pattern value specified,
//     the value is copied to the other pattern (making the input
//     stable); otherwise a random unspecified pattern position gets a
//     random value. Then necessary values are recomputed.
//
// The loop ends when all primary inputs are specified; the resulting
// fully specified test is checked against the cube (required stable
// values must be hazard-free under the conservative three-plane
// simulation) and returned.
//
// Three engineering refinements keep the procedure fast without
// changing a single decision it makes:
//
//   - the justifier seeds the input values with the implications of
//     the cube (necessary values by construction); a caller that grows
//     a cube one requirement set at a time can keep the cube's
//     implication fixpoint on the shared implier (Implier, with
//     robust.Implier's Mark/Extend/Undo) and enter through
//     JustifyImplied, so a cube that implies a conflict never reaches
//     the justifier at all;
//   - tentative probing is restricted to inputs whose probe outcome
//     may have changed, tracked with precomputed reachability bitsets;
//   - a probe is skipped when it cannot conflict: only a required net
//     whose required value is still x in the simulator can be
//     contradicted (assignments are monotone), so a position outside
//     the support of every such net is pruned without simulating it.
//
// Stats.Calls counts the calls that reached the justifier: a cube
// rejected by the caller's incremental implication is not a call.
// Stats.Probes counts the probes actually simulated and Stats.Pruned
// the probes skipped as unable to conflict (two per pruned position);
// Probes + Pruned is what the unpruned procedure would have probed.
package justify

import (
	"math/bits"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/robust"
	"repro/internal/tval"
)

// Config parameterizes a Justifier.
type Config struct {
	// Seed initializes the random number generator used for decision
	// selection; runs with the same seed are reproducible.
	Seed int64
	// DisableImplicationSeed turns off seeding the search with the
	// implications of the cube (useful for ablation studies).
	DisableImplicationSeed bool
	// DisableDirtyTracking makes every necessary-value pass probe all
	// relevant inputs, as the paper's literal loop does (ablation).
	DisableDirtyTracking bool
}

// Stats accumulates justification effort counters.
type Stats struct {
	Calls     int // Justify and JustifyImplied invocations
	Successes int
	Probes    int // tentative value probes simulated
	// Pruned counts the tentative value probes skipped because their
	// input reaches no required net that is still unspecified: such a
	// probe cannot conflict, so its outcome is known without
	// simulating it. Always zero under DisableDirtyTracking.
	Pruned    int
	Decisions int // random or copy decisions
	// Backtracks counts search backtracks; always zero for the
	// simulation-based procedure (it never backtracks — a conflict
	// fails the call), filled by the branch-and-bound backend.
	Backtracks int
}

// Justifier generates two-pattern tests satisfying requirement cubes
// on one circuit. It is not safe for concurrent use.
type Justifier struct {
	c   *circuit.Circuit
	sim *circuit.Simulator
	im  *robust.Implier
	rng *rand.Rand
	cfg Config

	words int
	// support[net*words .. ] is the bitset of PI indices in the
	// transitive fanin of net.
	support []uint64
	// dirtyMask[net*words ..] is the bitset of PI indices whose probe
	// outcome can change when net changes value: the PIs reaching net
	// or reaching any gate output fed by net.
	dirtyMask []uint64

	req     []tval.Triple // per net; TX when unconstrained
	reqList []int

	dirty []uint64

	// open[q*words ..] is the bitset of PI indices in the support of a
	// required net whose plane-q requirement is specified but still x
	// in the simulator: a probe can only conflict through such a net.
	// Requirements only close as commits land, so the masks are
	// recomputed lazily, when a commit has touched a required net.
	open      []uint64
	openStale bool
	// free is pickDecision's buffer of unspecified positions.
	free []piPos
	// onPrune, when set, sees every pruned probe position (tests).
	onPrune func(piIdx, plane int)

	stats Stats
}

// New creates a Justifier for the circuit.
func New(c *circuit.Circuit, cfg Config) *Justifier {
	j := &Justifier{
		c:   c,
		sim: circuit.NewSimulator(c),
		im:  robust.NewImplier(c),
		rng: rand.New(rand.NewSource(cfg.Seed)),
		cfg: cfg,
	}
	n := len(c.Lines)
	j.words = (len(c.PIs) + 63) / 64
	j.support = make([]uint64, n*j.words)
	j.dirtyMask = make([]uint64, n*j.words)
	j.req = make([]tval.Triple, n)
	for i := range j.req {
		j.req[i] = tval.TX
	}
	j.dirty = make([]uint64, j.words)
	j.open = make([]uint64, circuit.NumPlanes*j.words)

	// support: forward pass in topological order.
	for i, pi := range c.PIs {
		j.support[pi*j.words+i/64] |= 1 << (uint(i) % 64)
	}
	for _, gi := range c.TopoGates() {
		g := &c.Gates[gi]
		out := g.Out * j.words
		for _, in := range g.In {
			net := c.Lines[in].Net * j.words
			for w := 0; w < j.words; w++ {
				j.support[out+w] |= j.support[net+w]
			}
		}
	}
	// dirtyMask: own support plus the support of every gate output the
	// net feeds.
	copy(j.dirtyMask, j.support)
	for _, gi := range c.TopoGates() {
		g := &c.Gates[gi]
		out := g.Out * j.words
		for _, in := range g.In {
			net := c.Lines[in].Net * j.words
			for w := 0; w < j.words; w++ {
				j.dirtyMask[net+w] |= j.support[out+w]
			}
		}
	}
	return j
}

// Stats returns the accumulated effort counters.
func (j *Justifier) Stats() Stats { return j.stats }

// Implier returns the justifier's implier. Justify leaves the cube's
// implication fixpoint on it; a caller may extend that fixpoint with
// further requirements (robust.Implier's Mark/Extend/Undo) and then
// enter through JustifyImplied.
func (j *Justifier) Implier() *robust.Implier { return j.im }

// Justify searches for a fully specified two-pattern test satisfying
// every requirement in the cube. ok is false when the search fails;
// the procedure is randomized and incomplete, so failure does not
// prove the cube unsatisfiable.
func (j *Justifier) Justify(cube *robust.Cube) (test circuit.TwoPattern, ok bool) {
	if !j.cfg.DisableImplicationSeed && !j.im.ImplyConsistent(cube) {
		j.stats.Calls++
		return test, false
	}
	return j.JustifyImplied(cube)
}

// JustifyImplied is Justify for a cube whose implication fixpoint the
// implier already holds, free of conflict: it skips recomputing that
// fixpoint and seeds the search from the implier's values as they
// stand. It draws the same random numbers and returns the same test
// as Justify would.
func (j *Justifier) JustifyImplied(cube *robust.Cube) (test circuit.TwoPattern, ok bool) {
	j.stats.Calls++
	c := j.c
	defer j.clearReq()
	for i, net := range cube.Nets {
		j.req[net] = cube.Vals[i]
		j.reqList = append(j.reqList, net)
	}
	j.sim.Reset()
	for w := range j.dirty {
		j.dirty[w] = 0
	}
	j.openStale = true

	// Seed with the implications of the cube: every implied primary
	// input value is necessary.
	if !j.cfg.DisableImplicationSeed {
		for i, pi := range c.PIs {
			for _, plane := range []int{0, 2} {
				if v := j.im.Value(pi, plane); v != tval.X {
					if j.applyPos(i, plane, v, true) {
						return test, false
					}
				}
			}
		}
	}

	// Inputs that can influence a required net must be probed.
	for _, net := range cube.Nets {
		j.orDirty(j.support[net*j.words:])
	}

	if !j.assignNecessary() {
		return test, false
	}
	for {
		piIdx, plane, v, done := j.pickDecision()
		if done {
			break
		}
		j.stats.Decisions++
		if j.applyPos(piIdx, plane, v, true) {
			return test, false
		}
		if !j.assignNecessary() {
			return test, false
		}
	}

	// All inputs specified: verify that the simulated values cover the
	// cube (required stable values must be hazard-free).
	for i, net := range cube.Nets {
		if !cube.Vals[i].Covers(j.sim.Triple(net)) {
			return test, false
		}
	}
	test = j.extract()
	j.stats.Successes++
	return test, true
}

func (j *Justifier) clearReq() {
	for _, net := range j.reqList {
		j.req[net] = tval.TX
	}
	j.reqList = j.reqList[:0]
}

func (j *Justifier) orDirty(mask []uint64) {
	if j.cfg.DisableDirtyTracking {
		// Paper-literal mode: any change makes every input worth
		// re-probing, reproducing the full sweeps of Section 2.1.
		j.allDirty()
		return
	}
	for w := 0; w < j.words; w++ {
		j.dirty[w] |= mask[w]
	}
}

func (j *Justifier) allDirty() {
	n := len(j.c.PIs)
	for w := 0; w < j.words; w++ {
		j.dirty[w] = ^uint64(0)
	}
	if r := n % 64; r != 0 {
		j.dirty[j.words-1] = (1 << uint(r)) - 1
	}
}

// applyPos assigns pattern position plane∈{0,2} of primary input
// piIdx, propagates, and reports whether a required value was
// contradicted. When the other pattern position holds the same value,
// the intermediate also becomes specified (the input is stable).
// When commit is true, changed nets extend the dirty set.
func (j *Justifier) applyPos(piIdx, plane int, v tval.V, commit bool) (conflict bool) {
	net := j.c.PIs[piIdx]
	if j.sim.Value(net, plane) == v {
		return false
	}
	if j.consume(j.sim.Assign(net, plane, v), plane, commit) {
		return true
	}
	other := 2 - plane
	if j.sim.Value(net, other) == v && j.sim.Value(net, 1) == tval.X {
		if j.consume(j.sim.Assign(net, 1, v), 1, commit) {
			return true
		}
	}
	return false
}

// consume checks changed nets against the requirements and, on commit,
// extends the dirty set and notes that a requirement closed.
func (j *Justifier) consume(changed []int, plane int, commit bool) (conflict bool) {
	for _, n := range changed {
		r := j.req[n]
		if r != tval.TX {
			if want := r.At(plane); want != tval.X {
				if j.sim.Value(n, plane) != want {
					conflict = true
				}
				if commit {
					j.openStale = true
				}
			}
		}
		if commit {
			j.orDirty(j.dirtyMask[n*j.words:])
		}
	}
	return conflict
}

// probe tentatively applies a position value and reports conflict.
func (j *Justifier) probe(piIdx, plane int, v tval.V) bool {
	j.stats.Probes++
	m := j.sim.Snapshot()
	conflict := j.applyPos(piIdx, plane, v, false)
	j.sim.RollbackTo(m)
	return conflict
}

// assignNecessary runs the necessary-value fixpoint. It returns false
// when some position conflicts with both values.
func (j *Justifier) assignNecessary() bool {
	for {
		piIdx := j.popDirty()
		if piIdx < 0 {
			return true
		}
		for _, plane := range []int{0, 2} {
			net := j.c.PIs[piIdx]
			if j.sim.Value(net, plane) != tval.X {
				continue
			}
			if !j.mayConflict(piIdx, plane) {
				j.stats.Pruned += 2
				if j.onPrune != nil {
					j.onPrune(piIdx, plane)
				}
				continue
			}
			c0 := j.probe(piIdx, plane, tval.Zero)
			c1 := j.probe(piIdx, plane, tval.One)
			switch {
			case c0 && c1:
				return false
			case c0:
				if j.applyPos(piIdx, plane, tval.One, true) {
					return false
				}
			case c1:
				if j.applyPos(piIdx, plane, tval.Zero, true) {
					return false
				}
			}
		}
	}
}

// mayConflict reports whether probing pattern position plane∈{0,2} of
// primary input piIdx can contradict a requirement. A probe changes
// only nets in the input's fanout cone, on its plane and — when it
// makes the input stable — on the intermediate plane; and it changes
// only nets that are still x, since assignments are monotone. So it
// can conflict only through a required net that is still open on one
// of those planes and whose support holds the input.
func (j *Justifier) mayConflict(piIdx, plane int) bool {
	if j.cfg.DisableDirtyTracking {
		return true // paper-literal mode probes everything
	}
	if j.openStale {
		j.refreshOpen()
	}
	w, bit := piIdx/64, uint64(1)<<(uint(piIdx)%64)
	return (j.open[plane*j.words+w]|j.open[1*j.words+w])&bit != 0
}

// refreshOpen recomputes the open masks from the requirements that the
// simulator has not yet specified.
func (j *Justifier) refreshOpen() {
	for w := range j.open {
		j.open[w] = 0
	}
	for _, net := range j.reqList {
		r := j.req[net]
		for q := 0; q < circuit.NumPlanes; q++ {
			if r.At(q) == tval.X || j.sim.Value(net, q) != tval.X {
				continue
			}
			open, sup := j.open[q*j.words:], j.support[net*j.words:]
			for w := 0; w < j.words; w++ {
				open[w] |= sup[w]
			}
		}
	}
	j.openStale = false
}

// popDirty removes and returns one dirty PI index, or -1.
func (j *Justifier) popDirty() int {
	for w := 0; w < j.words; w++ {
		if j.dirty[w] == 0 {
			continue
		}
		b := bits.TrailingZeros64(j.dirty[w])
		j.dirty[w] &^= 1 << uint(b)
		idx := w*64 + b
		if idx >= len(j.c.PIs) {
			continue
		}
		return idx
	}
	return -1
}

// pickDecision chooses the next position to specify: first an input
// with exactly one pattern value specified (copied to make the input
// stable), otherwise a random unspecified position with a random
// value. done is true when every position is specified.
func (j *Justifier) pickDecision() (piIdx, plane int, v tval.V, done bool) {
	c := j.c
	for i, net := range c.PIs {
		v1 := j.sim.Value(net, 0)
		v3 := j.sim.Value(net, 2)
		if v1 != tval.X && v3 == tval.X {
			return i, 2, v1, false
		}
		if v1 == tval.X && v3 != tval.X {
			return i, 0, v3, false
		}
	}
	// Random unspecified position.
	j.free = j.free[:0]
	for i, net := range c.PIs {
		if j.sim.Value(net, 0) == tval.X {
			j.free = append(j.free, piPos{i, 0})
		}
		if j.sim.Value(net, 2) == tval.X {
			j.free = append(j.free, piPos{i, 2})
		}
	}
	if len(j.free) == 0 {
		return 0, 0, tval.X, true
	}
	p := j.free[j.rng.Intn(len(j.free))]
	return p.pi, p.plane, tval.V(j.rng.Intn(2)), false
}

// piPos is a pattern position: plane∈{0,2} of the primary input with
// index pi.
type piPos struct{ pi, plane int }

// extract snapshots the current fully specified input values.
func (j *Justifier) extract() circuit.TwoPattern {
	c := j.c
	t := circuit.TwoPattern{
		P1: make([]tval.V, len(c.PIs)),
		P3: make([]tval.V, len(c.PIs)),
	}
	for i, net := range c.PIs {
		t.P1[i] = j.sim.Value(net, 0)
		t.P3[i] = j.sim.Value(net, 2)
	}
	return t
}
