package core

import (
	"context"

	"repro/internal/circuit"
	"repro/internal/robust"
)

// EnrichK generalizes the enrichment procedure to any number of target
// sets, in decreasing criticality order: primaries come only from
// sets[0]; secondary targets are taken from sets[0], then sets[1], and
// so on — a set is considered only after every fault of the more
// critical sets has been considered for the current test. The paper
// notes this generalization in Section 3.1 ("it is possible to
// partition P into a larger number of subsets") and evaluates k = 2.
func EnrichK(c *circuit.Circuit, sets [][]robust.FaultConditions, cfg Config) *Result {
	res, _ := EnrichKCtx(context.Background(), c, sets, cfg)
	return res
}

// EnrichKCtx is EnrichK under a context: the run stops promptly when
// ctx is canceled, returning the partial result together with
// ctx.Err(). Enrichment always compacts, so Uncompacted runs as
// ValueBased, the ordering the paper selects.
func EnrichKCtx(ctx context.Context, c *circuit.Circuit, sets [][]robust.FaultConditions, cfg Config) (*Result, error) {
	if cfg.Heuristic == Uncompacted {
		cfg.Heuristic = ValueBased
	}
	return generate(ctx, c, sets, cfg)
}

// pickPrimary picks the next primary target: the first fault of
// sets[0] in iteration order that is neither detected nor tried.
func (g *generator) pickPrimary() int {
	for _, i := range g.order {
		if g.setOf[i] == 0 && !g.detected[i] && !g.tried[i] {
			return i
		}
	}
	return -1
}

// addSecondariesPhased runs the secondary loop over k phases. Under
// the value-based ordering each candidate's nΔ is computed once per
// cube: a rejected candidate leaves the cube unchanged, so the deltas
// are recomputed only after an accept.
func (g *generator) addSecondariesPhased(primary int, test circuit.TwoPattern, cube robust.Cube, res *Result, k int) circuit.TwoPattern {
	sim := test.Simulate(g.c)
	for phase := 0; phase < k; phase++ {
		cand := g.candidates(primary, phase)
		stale := true
		for len(cand) > 0 {
			if g.canceled() {
				return test
			}
			pick := 0
			if g.cfg.Heuristic == ValueBased {
				if stale {
					g.minDeltas(cand, &cube)
					stale = false
				}
				pick = g.minDeltaIndex()
				g.delta = append(g.delta[:pick], g.delta[pick+1:]...)
			}
			fi := cand[pick]
			cand = append(cand[:pick], cand[pick+1:]...)
			if g.detected[fi] {
				continue
			}
			ok, cheap := false, false
			var newTest circuit.TwoPattern
			var newCube robust.Cube
			if !g.cfg.DisableCheapAccept {
				for a := range g.faults[fi].Alts {
					alt := &g.faults[fi].Alts[a]
					if alt.CoveredBy(sim) {
						if m, mok := cube.Merge(alt); mok {
							newCube, newTest, ok, cheap = m, test, true, true
							// The merged cube is covered by a real test,
							// so its implication cannot conflict.
							if g.im != nil && !g.im.Extend(alt) {
								panic("core: a cube covered by a test implies a conflict")
							}
						}
						break
					}
				}
			}
			if !ok {
				newTest, newCube, ok = g.justifyFault(fi, &cube, res)
			}
			if ok {
				cube = newCube
				stale = true
				if !cheap {
					test = newTest
					sim = test.Simulate(g.c)
				}
				res.SecondaryAccepts++
				res.SecondaryAcceptsBySet[phase]++
				if cheap {
					res.CheapAccepts++
				}
			} else {
				res.SecondaryRejects++
				res.SecondaryRejectsBySet[phase]++
			}
		}
	}
	return test
}

// candidates lists the undetected faults of target set want, other
// than the primary, in iteration order.
func (g *generator) candidates(primary, want int) []int {
	var out []int
	for _, i := range g.order {
		if i == primary || g.detected[i] || g.setOf[i] != want {
			continue
		}
		out = append(out, i)
	}
	return out
}
