package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/faultsim"
	"repro/internal/justify"
	"repro/internal/obs"
	"repro/internal/pathenum"
	"repro/internal/robust"
)

var inf = math.Inf(1)

// replaySpanLimit keeps every span of a replayed job: core opens two
// spans per generated test, far past the engine's per-job default.
const replaySpanLimit = 1 << 20

// timingMetric reports whether a per-layer metric is a time (or a
// ratio of times), which varies run to run. Every other per-layer
// metric is a work count and must repeat exactly.
func timingMetric(name string) bool {
	return strings.HasSuffix(name, "_ms") || strings.HasSuffix(name, ".ms") || name == "obs.trace_overhead_frac"
}

// passRecord accumulates one traced pass's per-layer values.
type passRecord struct {
	vals map[string]float64
	// replayMS and engineMS time the same cold jobs traced (replayed
	// through the layers with spans) and untraced (through the engine).
	replayMS, engineMS float64
}

func newPassRecord() *passRecord { return &passRecord{vals: map[string]float64{}} }

// engineDelta records the engine counters a pass moved.
func (p *passRecord) engineDelta(prev, cur engine.Snapshot) {
	hits, misses := cur.CacheHits-prev.CacheHits, cur.CacheMisses-prev.CacheMisses
	if hits+misses > 0 {
		p.vals["engine.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	p.vals["engine.jobs_shed"] = float64(cur.JobsShed - prev.JobsShed)
	p.vals["engine.jobs_failed"] = float64(cur.JobsFailed - prev.JobsFailed)
}

// counts returns the pass's exact work counts.
func (p *passRecord) counts() map[string]float64 {
	out := map[string]float64{}
	for k, v := range p.vals {
		if !timingMetric(k) {
			out[k] = v
		}
	}
	return out
}

// addEngineJob reads the engine's own span timeline of a job: queue
// wait, prepare and cache lookup, and the spans it dropped.
func (p *passRecord) addEngineJob(v engine.JobView, cold bool, latMS float64) {
	if cold {
		p.engineMS += latMS
	}
	if v.Trace == nil {
		return
	}
	for _, s := range v.Trace.Spans {
		switch s.Name {
		case "queued":
			p.vals["engine.queue_wait_ms"] += s.DurMS
		case "prepare":
			p.vals["engine.prepare_ms"] += s.DurMS
		case "cache_lookup":
			p.vals["engine.cache_lookup_ms"] += s.DurMS
		}
	}
	p.vals["obs.spans_dropped"] += float64(v.Trace.Dropped)
}

// replay re-runs one cold job through the public layer functions in the
// engine's order, with a span around each call, and requires the same
// output as the engine job.
func (p *passRecord) replay(r *runner, pass int, s engine.Spec, want *engine.Result) error {
	tr := obs.NewTrace(replaySpanLimit)
	ctx := obs.NewContext(context.Background(), tr)
	t0 := time.Now()
	got, err := replayJob(ctx, s, p.vals)
	p.replayMS += ms(time.Since(t0))
	if err != nil {
		return fmt.Errorf("pass %d: replay %s %s: %w", pass, s.Kind, s.Circuit, err)
	}
	if strings.Join(got, "\n") != strings.Join(want.Tests, "\n") {
		return fmt.Errorf("pass %d: replayed %s %s produced %d tests that differ from the engine job's %d",
			pass, s.Kind, s.Circuit, len(got), len(want.Tests))
	}
	label := fmt.Sprintf("pass%d/%s/%s", pass, s.Kind, s.Circuit)
	views := selfTimes(label, tr.Snapshot())
	for _, v := range views {
		switch v.Name {
		case "core":
			p.vals["core.generation_ms"] += v.SelfMS
		case "compaction":
			p.vals["core.compaction_ms"] += v.DurMS
		case "simulation":
			p.vals["core.simdrop_ms"] += v.DurMS
		}
	}
	p.vals["obs.spans_dropped"] += float64(tr.Snapshot().Dropped)
	r.spans = append(r.spans, spanDump{Label: label, Spans: views})
	return nil
}

// replayJob is the engine's execute pipeline spelled out through each
// layer's public function. It returns the job's tests in the engine's
// string form.
func replayJob(ctx context.Context, s engine.Spec, vals map[string]float64) ([]string, error) {
	// timed runs fn under a span named after its layer and adds its
	// duration to the metric.
	timed := func(metric string, fn func(context.Context) error) error {
		sctx, span := obs.StartSpan(ctx, strings.SplitN(metric, ".", 2)[0])
		t := time.Now()
		err := fn(sctx)
		span.End()
		vals[metric] += ms(time.Since(t))
		return err
	}
	var c *circuit.Circuit
	if err := timed("experiments.load_ms", func(context.Context) (err error) {
		c, err = experiments.LoadCircuit(s.Circuit)
		return err
	}); err != nil {
		return nil, err
	}
	var enum *pathenum.Result
	if err := timed("pathenum.ms", func(context.Context) (err error) {
		enum, err = pathenum.Enumerate(c, pathenum.Config{MaxFaults: s.NP, Mode: pathenum.DistancePruned})
		return err
	}); err != nil {
		return nil, err
	}
	vals["pathenum.extensions"] += float64(enum.Stats.Extensions)
	vals["pathenum.faults"] += float64(len(enum.Faults))
	vals["pathenum.evicted"] += float64(enum.Stats.EvictedComplete + enum.Stats.EvictedPartial)
	var kept []robust.FaultConditions
	var eliminated int
	_ = timed("robust.screen_ms", func(context.Context) error {
		kept, eliminated = robust.Screen(c, enum.Faults)
		return nil
	})
	vals["robust.screen_kept"] += float64(len(kept))
	vals["robust.screen_eliminated"] += float64(eliminated)
	raw := make([]faults.Fault, len(kept))
	for i := range kept {
		raw[i] = kept[i].Fault
	}
	_, pspan := obs.StartSpan(ctx, "faults")
	p0f, _, _ := faults.Partition(raw, s.NP0)
	pspan.End()
	p0, p1 := kept[:len(p0f)], kept[len(p0f):]
	all := append(append([]robust.FaultConditions(nil), p0...), p1...)

	h, err := core.ParseHeuristic(s.Heuristic)
	if s.Heuristic == "" {
		h, err = core.ValueBased, nil
	}
	if err != nil {
		return nil, err
	}
	cfg := core.Config{Heuristic: h, Seed: s.Seed, UseBnB: s.UseBnB}
	var tests []circuit.TwoPattern
	switch s.Kind {
	case engine.KindGenerate:
		var g *core.Result
		err = coreSpan(ctx, func(cctx context.Context) (err error) {
			g, err = core.GenerateCtx(cctx, c, p0, cfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		tests = g.Tests
		addCore(vals, g.SecondaryAccepts, g.SecondaryRejects, g.CheapAccepts, g.PrimaryAborts, g.RegenPerTest, g.JustifyStats)
		var n int
		if err := timed("faultsim.ms", func(sctx context.Context) (err error) {
			n, err = faultsim.CountParallel(sctx, c, tests, all, 1)
			return err
		}); err != nil {
			return nil, err
		}
		vals["faultsim.pairs"] += float64(len(tests) * len(all))
		vals["faultsim.detected"] += float64(n)
	case engine.KindEnrich:
		var er *core.EnrichResult
		err = coreSpan(ctx, func(cctx context.Context) (err error) {
			er, err = core.EnrichCtx(cctx, c, p0, p1, cfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		tests = er.Tests
		addCore(vals, er.SecondaryAccepts, er.SecondaryRejects, er.CheapAccepts, er.PrimaryAborts, er.RegenPerTest, er.JustifyStats)
	case engine.KindFaultSim:
		if err := timed("testio.parse_ms", func(context.Context) (err error) {
			tests, err = parsedTests(c, s.Tests)
			return err
		}); err != nil {
			return nil, err
		}
		var first []int
		if err := timed("faultsim.ms", func(sctx context.Context) (err error) {
			first, err = faultsim.RunParallel(sctx, c, tests, all, 1)
			return err
		}); err != nil {
			return nil, err
		}
		vals["faultsim.pairs"] += float64(len(tests) * len(all))
		for _, fd := range first {
			if fd >= 0 {
				vals["faultsim.detected"]++
			}
		}
	}
	out := make([]string, len(tests))
	for i, tp := range tests {
		out[i] = tp.String()
	}
	return out, nil
}

// coreSpan runs a generation loop under a "core" span; core's own
// compaction and simulation spans nest under it through the context.
func coreSpan(ctx context.Context, fn func(context.Context) error) error {
	cctx, span := obs.StartSpan(ctx, "core")
	err := fn(cctx)
	span.End()
	return err
}

// addCore adds a generation run's counters from core's result structs.
func addCore(vals map[string]float64, accepts, rejects, cheap, aborts int, regen []int, js justify.Stats) {
	vals["core.secondary_accepts"] += float64(accepts)
	vals["core.secondary_rejects"] += float64(rejects)
	vals["core.cheap_accepts"] += float64(cheap)
	vals["core.primary_aborts"] += float64(aborts)
	for _, n := range regen {
		vals["core.regenerations"] += float64(n)
	}
	vals["justify.calls"] += float64(js.Calls)
	vals["justify.successes"] += float64(js.Successes)
	vals["justify.probes"] += float64(js.Probes)
	vals["justify.decisions"] += float64(js.Decisions)
	vals["justify.backtracks"] += float64(js.Backtracks)
}

// selfTimes converts a trace snapshot into span views with self time:
// a span's duration minus the part of it its children cover.
func selfTimes(label string, tv obs.TraceView) []spanView {
	type iv struct{ a, b float64 }
	kids := map[int][]iv{}
	for _, s := range tv.Spans {
		if s.Parent != 0 && s.DurMS >= 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.StartMS, s.StartMS + s.DurMS})
		}
	}
	out := make([]spanView, 0, len(tv.Spans))
	for _, s := range tv.Spans {
		self := s.DurMS
		if ivs := kids[s.ID]; len(ivs) > 0 && s.DurMS >= 0 {
			sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
			lo, hi := s.StartMS, s.StartMS+s.DurMS
			covered, curA, curB := 0.0, lo, lo
			for _, k := range ivs {
				a, b := math.Max(k.a, lo), math.Min(k.b, hi)
				switch {
				case b <= a:
				case a > curB:
					covered += curB - curA
					curA, curB = a, b
				case b > curB:
					curB = b
				}
			}
			covered += curB - curA
			self = s.DurMS - covered
		}
		v := spanView{ID: fmt.Sprintf("%s:%d", label, s.ID), Name: s.Name, StartMS: s.StartMS, DurMS: s.DurMS, SelfMS: self}
		if s.Parent != 0 {
			v.Parent = fmt.Sprintf("%s:%d", label, s.Parent)
		}
		out = append(out, v)
	}
	return out
}

// addPass folds a finished traced pass into the run's layer table.
// Work counts are identical across passes (exactCounters checks), so
// the table keeps them per pass; times are medians over passes.
func (r *runner) addPass(p *passRecord) {
	if p.engineMS > 0 {
		p.vals["obs.trace_overhead_frac"] = p.replayMS/p.engineMS - 1
	}
	r.passVals = append(r.passVals, p.vals)
}

// finishLayers reduces the traced passes to one value per metric and
// derives the ratios.
func (r *runner) finishLayers() {
	r.layers = map[string]float64{}
	for _, d := range perLayer {
		xs := make([]float64, 0, len(r.passVals))
		for _, pv := range r.passVals {
			xs = append(xs, pv[d.Name])
		}
		r.layers[d.Name] = median(xs)
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	l := r.layers
	l["core.accept_ratio"] = ratio(l["core.secondary_accepts"], l["core.secondary_accepts"]+l["core.secondary_rejects"])
	l["justify.success_ratio"] = ratio(l["justify.successes"], l["justify.calls"])
}
