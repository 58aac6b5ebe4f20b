// Package core implements the paper's test generation procedures: the
// basic dynamic-compaction ATPG with primary and secondary target
// faults (Section 2.2) and the test enrichment procedure with multiple
// sets of target faults (Section 3.2).
//
// Every test starts from a primary target fault. Secondary target
// faults are added to the set P(t) one at a time; after each addition
// the justification procedure regenerates a test satisfying the union
// of the A(p) cubes of P(t) — the addition is accepted only if
// regeneration succeeds. Once a test is complete, all remaining target
// faults are fault simulated against it and detected faults are
// dropped.
//
// The enrichment procedure runs the same loop with two target sets:
// primaries come only from P0; secondaries come from P0 first and,
// only when P0 is exhausted, from P1. Faults in P1 are therefore
// detected without increasing the number of tests. Generate, Enrich
// and EnrichK are that one loop over k = 1, 2 or any number of target
// sets, and all report the same Result.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/circuit"
	"repro/internal/faultsim"
	"repro/internal/justify"
	"repro/internal/obs"
	"repro/internal/robust"
	"repro/internal/tval"
)

// Heuristic selects the compaction heuristic of Section 2.2.
type Heuristic int

// The four procedures compared in Tables 3 and 4.
const (
	// Uncompacted generates one test per primary target fault, with no
	// secondary targets (fault dropping still applies).
	Uncompacted Heuristic = iota
	// Arbitrary picks primary and secondary targets in fault-list
	// order.
	Arbitrary
	// LengthBased picks primary and secondary targets longest path
	// first.
	LengthBased
	// ValueBased picks the primary longest first and each secondary to
	// minimize nΔ, the number of new values the test must satisfy.
	ValueBased
)

var heuristicNames = [...]string{"uncomp", "arbit", "length", "values"}

func (h Heuristic) String() string {
	if int(h) < len(heuristicNames) {
		return heuristicNames[h]
	}
	return "unknown"
}

// Heuristics lists all four in table order.
var Heuristics = []Heuristic{Uncompacted, Arbitrary, LengthBased, ValueBased}

// ParseHeuristic parses a heuristic name as printed by String.
func ParseHeuristic(s string) (Heuristic, error) {
	for _, h := range Heuristics {
		if h.String() == s {
			return h, nil
		}
	}
	return 0, fmt.Errorf("core: unknown heuristic %q (want uncomp, arbit, length or values)", s)
}

// Config parameterizes a test generation run.
type Config struct {
	// Heuristic is the compaction heuristic (the enrichment procedure
	// of Section 3.2 always uses ValueBased, as the paper selects).
	Heuristic Heuristic
	// Seed drives all random choices; equal seeds reproduce runs.
	Seed int64
	// DisableCheapAccept turns off the fast path that accepts a
	// secondary fault without regenerating the test when the current
	// test already covers the fault's conditions. The fast path never
	// changes which faults a finished test detects (such faults would
	// be dropped by the end-of-test fault simulation anyway); it only
	// saves justification work. Disable for ablation.
	DisableCheapAccept bool
	// Justify configures the underlying justifier; Seed is copied in.
	Justify justify.Config
	// UseBnB replaces the randomized simulation-based justification
	// with the complete branch-and-bound search, making results
	// independent of the seed (the paper: run-to-run variations "can
	// be eliminated by using a branch-and-bound procedure"). Note that
	// the Arbitrary heuristic still shuffles with the seed.
	UseBnB bool
	// BnB configures the branch-and-bound search when UseBnB is set.
	BnB justify.BnBConfig
}

// Result reports a generation run over k target sets: the basic
// procedure (Generate, k = 1) or the enrichment procedure (Enrich,
// k = 2; EnrichK, any k).
type Result struct {
	Tests []circuit.TwoPattern
	// Detected[s][i] reports whether fault i of target set s was
	// detected.
	Detected [][]bool
	// DetectedCounts[s] is the number of detected faults of set s.
	DetectedCounts []int
	// PrimaryAborts counts primary targets whose justification failed.
	PrimaryAborts int
	// SecondaryAccepts / SecondaryRejects count secondary target
	// outcomes (CheapAccepts included in accepts).
	SecondaryAccepts, SecondaryRejects, CheapAccepts int
	// SecondaryAcceptsBySet / SecondaryRejectsBySet split the
	// secondary outcomes by the target set the candidate came from:
	// index s counts candidates of set s (for Enrich, P0 and P1 — the
	// counters the paper's Table 6 discussion argues about).
	SecondaryAcceptsBySet, SecondaryRejectsBySet []int
	// RegenPerTest[t] counts the test regenerations of test t: each
	// accepted secondary whose conditions were not already covered
	// re-justifies the whole cube (cheap accepts regenerate nothing).
	// The paper's compaction cost argument is about exactly this loop.
	RegenPerTest []int
	// MergeRejects counts secondary alternatives whose cube conflicts
	// with the test's cube on some net; ImplicationRejects counts the
	// alternatives that merge but whose merged cube implies a conflict
	// (found incrementally on the test's implication fixpoint). Neither
	// reaches the justifier: JustifyStats.Calls + ImplicationRejects is
	// the number of calls a justifier that checks implication itself
	// would see. ImplicationRejects is zero when implication seeding
	// is disabled.
	MergeRejects, ImplicationRejects int
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// JustifyStats are the accumulated justifier counters.
	JustifyStats justify.Stats
}

// EnrichResult is the name Enrich and EnrichCtx return their Result
// under; it is an alias so that code naming it keeps compiling.
type EnrichResult = Result

// backend abstracts the two justification procedures.
type backend interface {
	justifyCube(cube *robust.Cube) (circuit.TwoPattern, bool)
	// justifyImplied is justifyCube for a cube whose implication
	// fixpoint the backend's implier already holds.
	justifyImplied(cube *robust.Cube) (circuit.TwoPattern, bool)
	stats() justify.Stats
}

type randomizedBackend struct{ j *justify.Justifier }

func (b randomizedBackend) justifyCube(cube *robust.Cube) (circuit.TwoPattern, bool) {
	return b.j.Justify(cube)
}
func (b randomizedBackend) justifyImplied(cube *robust.Cube) (circuit.TwoPattern, bool) {
	return b.j.JustifyImplied(cube)
}
func (b randomizedBackend) stats() justify.Stats { return b.j.Stats() }

type bnbBackend struct{ b *justify.BnB }

func (b bnbBackend) justifyCube(cube *robust.Cube) (circuit.TwoPattern, bool) {
	test, ok, _ := b.b.Justify(cube)
	return test, ok
}
func (b bnbBackend) justifyImplied(cube *robust.Cube) (circuit.TwoPattern, bool) {
	test, ok, _ := b.b.JustifyImplied(cube)
	return test, ok
}
func (b bnbBackend) stats() justify.Stats {
	st := b.b.Stats()
	return justify.Stats{Calls: st.Calls, Successes: st.Successes, Backtracks: st.Backtracks}
}

// generator holds the shared state of one run.
type generator struct {
	c    *circuit.Circuit
	cfg  Config
	ctx  context.Context
	just backend
	// im is the justifier's implier. Between a primary's justification
	// and the end of its compaction it holds the implication fixpoint
	// of the test's cube; secondary alternatives are implied on top of
	// it and rolled back on reject. nil when implication seeding is
	// disabled (ablation): every candidate then goes to the justifier.
	im       *robust.Implier
	faults   []robust.FaultConditions // the k target sets, concatenated
	setOf    []int                    // setOf[i] is the target set of fault i
	detected []bool
	tried    []bool
	// order is the fault iteration order for primary and secondary
	// picks: a seeded shuffle for Arbitrary, fault-list order
	// otherwise.
	order []int
	// delta is the value-based ordering's buffer of per-candidate nΔ.
	delta []int
}

// canceled reports whether the run's context has been canceled; the
// generation loop polls it between primary targets and between
// secondary candidates.
func (g *generator) canceled() bool {
	return g.ctx.Err() != nil
}

func newGenerator(ctx context.Context, c *circuit.Circuit, sets [][]robust.FaultConditions, cfg Config) *generator {
	g := &generator{c: c, cfg: cfg, ctx: ctx}
	if cfg.UseBnB {
		b := justify.NewBnB(c, cfg.BnB)
		g.just = bnbBackend{b}
		if !cfg.BnB.DisableImplicationSeed {
			g.im = b.Implier()
		}
	} else {
		jcfg := cfg.Justify
		jcfg.Seed = cfg.Seed
		j := justify.New(c, jcfg)
		g.just = randomizedBackend{j}
		if !jcfg.DisableImplicationSeed {
			g.im = j.Implier()
		}
	}
	for s, set := range sets {
		g.faults = append(g.faults, set...)
		for range set {
			g.setOf = append(g.setOf, s)
		}
	}
	g.detected = make([]bool, len(g.faults))
	g.tried = make([]bool, len(g.faults))
	// The shuffle is drawn for every heuristic; only Arbitrary keeps it.
	g.order = rand.New(rand.NewSource(cfg.Seed)).Perm(len(g.faults))
	if cfg.Heuristic != Arbitrary {
		for i := range g.order {
			g.order[i] = i
		}
	}
	return g
}

// Generate runs the basic test generation procedure of Section 2 on a
// single target set (already screened: every fault has alternatives).
func Generate(c *circuit.Circuit, fcs []robust.FaultConditions, cfg Config) *Result {
	res, _ := GenerateCtx(context.Background(), c, fcs, cfg)
	return res
}

// GenerateCtx is Generate under a context: the run stops promptly when
// ctx is canceled, returning the partial result together with
// ctx.Err(). Cancellation is observed between primary targets and
// between secondary candidates. It is the k = 1 case of the generation
// loop EnrichKCtx runs.
func GenerateCtx(ctx context.Context, c *circuit.Circuit, fcs []robust.FaultConditions, cfg Config) (*Result, error) {
	return generate(ctx, c, [][]robust.FaultConditions{fcs}, cfg)
}

// generate is the one generation loop of the package, over k target
// sets in decreasing criticality order. Primaries come only from
// sets[0]; each test is compacted with secondaries from sets[0], then
// sets[1], and so on (unless the heuristic is Uncompacted); then every
// remaining target fault is simulated against the finished test and
// the detected ones are dropped.
func generate(ctx context.Context, c *circuit.Circuit, sets [][]robust.FaultConditions, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now() //lint:telemetry feeds Result.Elapsed only, never a generation decision
	g := newGenerator(ctx, c, sets, cfg)
	k := len(sets)
	res := &Result{
		SecondaryAcceptsBySet: make([]int, k),
		SecondaryRejectsBySet: make([]int, k),
	}
	for !g.canceled() {
		pi := g.pickPrimary()
		if pi < 0 {
			break
		}
		g.tried[pi] = true
		test, cube, ok := g.justifyFault(pi, nil, res)
		if !ok {
			res.PrimaryAborts++
			continue
		}
		if cfg.Heuristic != Uncompacted {
			test = g.compactTest(pi, test, cube, res, k)
		} else {
			res.RegenPerTest = append(res.RegenPerTest, 0)
		}
		res.Tests = append(res.Tests, test)
		g.simDrop(test)
	}
	res.Detected = make([][]bool, k)
	res.DetectedCounts = make([]int, k)
	idx := 0
	for s, set := range sets {
		res.Detected[s] = g.detected[idx : idx+len(set) : idx+len(set)]
		for _, d := range res.Detected[s] {
			if d {
				res.DetectedCounts[s]++
			}
		}
		idx += len(set)
	}
	res.Elapsed = time.Since(start) //lint:telemetry wall-clock report, not part of the digest
	res.JustifyStats = g.just.stats()
	return res, ctx.Err()
}

// compactTest is addSecondariesPhased under a "compaction" span on the
// job timeline — one span per generated test, attributed with the
// secondary accept/reject deltas.
func (g *generator) compactTest(primary int, test circuit.TwoPattern, cube robust.Cube, res *Result, k int) circuit.TwoPattern {
	accepts, rejects, cheap := res.SecondaryAccepts, res.SecondaryRejects, res.CheapAccepts
	merge, implication := res.MergeRejects, res.ImplicationRejects
	_, span := obs.StartSpan(g.ctx, "compaction",
		obs.String("heuristic", g.cfg.Heuristic.String()), obs.Int("test", len(res.Tests)))
	test = g.addSecondariesPhased(primary, test, cube, res, k)
	// Every non-cheap accept regenerated the test under the grown cube.
	res.RegenPerTest = append(res.RegenPerTest,
		(res.SecondaryAccepts-accepts)-(res.CheapAccepts-cheap))
	span.End(obs.Int("accepts", res.SecondaryAccepts-accepts),
		obs.Int("rejects", res.SecondaryRejects-rejects),
		obs.Int("merge_rejects", res.MergeRejects-merge),
		obs.Int("implication_rejects", res.ImplicationRejects-implication))
	return test
}

// simDrop is dropDetected under a "simulation" span on the job
// timeline: the end-of-test fault simulation that drops the target
// faults the finished test detects.
func (g *generator) simDrop(test circuit.TwoPattern) {
	_, span := obs.StartSpan(g.ctx, "simulation", obs.Int("faults", len(g.faults)))
	g.dropDetected(test)
	span.End()
}

// Enrich runs the test enrichment procedure of Section 3.2: primaries
// and first-phase secondaries from p0; second-phase secondaries from
// p1. It always uses the value-based secondary ordering unless the
// config selects another compaction heuristic. Enrich is the k = 2
// case of EnrichK, the configuration the paper evaluates.
func Enrich(c *circuit.Circuit, p0, p1 []robust.FaultConditions, cfg Config) *EnrichResult {
	res, _ := EnrichCtx(context.Background(), c, p0, p1, cfg)
	return res
}

// EnrichCtx is Enrich under a context; see GenerateCtx for the
// cancellation contract.
func EnrichCtx(ctx context.Context, c *circuit.Circuit, p0, p1 []robust.FaultConditions, cfg Config) (*EnrichResult, error) {
	return EnrichKCtx(ctx, c, [][]robust.FaultConditions{p0, p1}, cfg)
}

// justifyFault tries the fault's alternatives (merged into base when
// non-nil) and returns the first test found with the merged cube.
//
// For a secondary (base non-nil) with implication seeding on, the
// implier holds base's fixpoint: each alternative is implied on top of
// it, and only a consistent one reaches the justifier. Rejected
// alternatives are rolled back; on success the implier holds the
// merged cube's fixpoint. This decides exactly as justifying each
// merged cube from scratch would: the fixpoint does not depend on the
// order of implication, and a call that fails on implication draws no
// random numbers.
func (g *generator) justifyFault(i int, base *robust.Cube, res *Result) (circuit.TwoPattern, robust.Cube, bool) {
	for a := range g.faults[i].Alts {
		alt := &g.faults[i].Alts[a]
		cube := *alt
		if base != nil {
			m, ok := base.Merge(alt)
			if !ok {
				res.MergeRejects++
				continue
			}
			cube = m
		}
		if base == nil || g.im == nil {
			if test, ok := g.just.justifyCube(&cube); ok {
				return test, cube, true
			}
			continue
		}
		mark := g.im.Mark()
		if !g.im.Extend(alt) {
			g.im.Undo(mark)
			res.ImplicationRejects++
			continue
		}
		if test, ok := g.just.justifyImplied(&cube); ok {
			return test, cube, true
		}
		g.im.Undo(mark)
	}
	return circuit.TwoPattern{}, robust.Cube{}, false
}

// minDeltas fills g.delta with nΔ for every candidate: the fewest new
// value positions any of its alternatives adds to the cube.
func (g *generator) minDeltas(cand []int, cube *robust.Cube) {
	g.delta = g.delta[:0]
	for _, fi := range cand {
		best := int(^uint(0) >> 1)
		for a := range g.faults[fi].Alts {
			if d := cube.NewlySpecified(&g.faults[fi].Alts[a]); d < best {
				best = d
			}
		}
		g.delta = append(g.delta, best)
	}
}

// minDeltaIndex returns the first position of the smallest nΔ.
func (g *generator) minDeltaIndex() int {
	best := 0
	for pos, d := range g.delta {
		if d < g.delta[best] {
			best = pos
		}
	}
	return best
}

// dropDetected fault simulates the finished test over all undetected
// target faults and marks detections.
func (g *generator) dropDetected(test circuit.TwoPattern) {
	sim := test.Simulate(g.c)
	for i := range g.faults {
		if g.detected[i] {
			continue
		}
		if faultsim.DetectsSim(&g.faults[i], sim) {
			g.detected[i] = true
		}
	}
}

// RandomTest returns a random fully specified two-pattern test; used
// by comparison baselines and tests.
func RandomTest(c *circuit.Circuit, rng *rand.Rand) circuit.TwoPattern {
	tp := circuit.TwoPattern{
		P1: make([]tval.V, len(c.PIs)),
		P3: make([]tval.V, len(c.PIs)),
	}
	for i := range tp.P1 {
		tp.P1[i] = tval.V(rng.Intn(2))
		tp.P3[i] = tval.V(rng.Intn(2))
	}
	return tp
}
