package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/bitsim"
	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/robust"
	"repro/internal/testio"
)

// The in-process workloads drive one engine from one client, one job
// at a time (1 worker, 1 simulation shard), so a job's time is its own
// and not a share of a contended CPU.

// enrichSpecs is one enrich-atpg pass: the paper's enrichment on three
// circuits, basic generation (the k=1 loop) on b04, and the
// branch-and-bound justifier on s641.
func enrichSpecs(seed int64, tiny bool) []engine.Spec {
	rng := rand.New(rand.NewSource(seed))
	s := func() int64 { return 1 + rng.Int63n(1<<30) }
	if tiny {
		return []engine.Spec{
			{Kind: engine.KindEnrich, Circuit: "s27", NP0: 10, Seed: s()},
			{Kind: engine.KindGenerate, Circuit: "c17", NP0: 4, Seed: s()},
			{Kind: engine.KindEnrich, Circuit: "c17", NP0: 4, Seed: s(), UseBnB: true},
		}
	}
	return []engine.Spec{
		{Kind: engine.KindEnrich, Circuit: "s641", NP: 1000, NP0: 200, Seed: s()},
		{Kind: engine.KindEnrich, Circuit: "s953", NP: 1000, NP0: 200, Seed: s()},
		{Kind: engine.KindEnrich, Circuit: "s1423", NP: 1000, NP0: 200, Seed: s()},
		{Kind: engine.KindGenerate, Circuit: "b04", NP: 1000, NP0: 200, Seed: s()},
		{Kind: engine.KindEnrich, Circuit: "s641", NP: 1000, NP0: 10, Seed: s(), UseBnB: true},
	}
}

// gradeSpecs is one faultsim-grade pass: 2048 seeded random two-pattern
// tests graded against each circuit's unbudgeted fault list.
func gradeSpecs(seed int64, tiny bool) ([]engine.Spec, error) {
	rng := rand.New(rand.NewSource(seed))
	circuits, n, np0 := []string{"s9234r", "s5378r"}, 2048, 2500
	if tiny {
		circuits, n, np0 = []string{"s27", "c17"}, 64, 4
	}
	var specs []engine.Spec
	for _, name := range circuits {
		c, err := experiments.LoadCircuit(name)
		if err != nil {
			return nil, err
		}
		specs = append(specs, engine.Spec{
			Kind: engine.KindFaultSim, Circuit: name, NP0: np0, Seed: 1,
			Tests: randomTests(rng, len(c.PIs), n),
		})
	}
	return specs, nil
}

// randomTests returns n fully specified two-pattern tests in the testio
// line format.
func randomTests(rng *rand.Rand, inputs, n int) []string {
	out := make([]string, n)
	b := make([]byte, 2*inputs+4)
	for i := range out {
		b = b[:0]
		for j := 0; j < 2*inputs; j++ {
			if j == inputs {
				b = append(b, " -> "...)
			}
			b = append(b, byte('0'+rng.Intn(2)))
		}
		out[i] = string(b)
	}
	return out
}

func runEnrichATPG(r *runner) error {
	return r.runInProcess(enrichSpecs(r.seed, r.tiny))
}

func runFaultsimGrade(r *runner) error {
	specs, err := gradeSpecs(r.seed, r.tiny)
	if err != nil {
		return err
	}
	return r.runInProcess(specs)
}

// inproc is one in-process set-up: the engine and the reference
// output of every spec, computed with the cache on so the measured
// hit probes find it.
type inproc struct {
	e    *engine.Engine
	refs []*engine.Result
}

// hitProbes is how many times a pass resubmits each spec with the cache
// on. Hits are cheap next to cold jobs, and several per spec steady the
// hit percentiles.
const hitProbes = 3

// runInProcess measures passes over specs. Each pass submits every
// spec once with the cache bypassed (a cold job that runs the whole
// pipeline), then hitProbes times with it on (a hit, which re-runs
// prepare and then reads the result the set-up stored).
func (r *runner) runInProcess(specs []engine.Spec) error {
	setup, err := measureSetup(r, func() (*inproc, error) {
		for _, s := range specs {
			if _, err := experiments.LoadCircuit(s.Circuit); err != nil {
				return nil, err
			}
		}
		ip := &inproc{e: engine.New(engine.Config{Workers: 1, SimWorkers: 1})}
		for _, s := range specs {
			v, err := runOne(ip.e, s, false)
			if err != nil {
				ip.e.Close()
				return nil, fmt.Errorf("set-up %s %s: %w", s.Kind, s.Circuit, err)
			}
			ip.refs = append(ip.refs, v.Result)
		}
		return ip, nil
	}, func(ip *inproc) { ip.e.Close() })
	if err != nil {
		return err
	}
	defer setup.e.Close()

	// Output checks on the reference results, outside any timed
	// region: independent fault simulation re-counts each job's
	// coverage. Later jobs must reproduce the references byte for byte.
	for i, s := range specs {
		if err := checkCoverage(s, setup.refs[i]); err != nil {
			return err
		}
	}
	r.digest = digestOf(setup.refs)

	var exact exactCounters
	prev := setup.e.Metrics()
	alloc := startAlloc()
	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		rec := newPassRecord()
		// A pass's rate counts only the jobs' own submit-to-terminal
		// times, not the checks and the traced replays between them.
		passMS, passJobs := 0.0, 0
		for i, s := range specs {
			for k := 0; k <= hitProbes; k++ {
				noCache := k == 0
				r.attempted++
				t0 := time.Now()
				v, err := runOne(setup.e, s, noCache)
				lat := ms(time.Since(t0))
				passMS += lat
				if err == nil && v.CacheHit == noCache {
					err = fmt.Errorf("cache_hit=%v with no_cache=%v", v.CacheHit, noCache)
				}
				if err == nil {
					err = sameResult(setup.refs[i], v.Result)
				}
				if err != nil {
					var opErr *opError
					if errors.As(err, &opErr) {
						r.failed++
						r.addLatency(!noCache, inf)
						continue
					}
					return fmt.Errorf("pass %d %s %s: %w", pass, s.Kind, s.Circuit, err)
				}
				passJobs++
				r.addLatency(!noCache, lat)
				r.addOutput(v.Result)
				if r.trace {
					rec.addEngineJob(v, noCache, lat)
					if noCache {
						if err := rec.replay(r, pass, s, v.Result); err != nil {
							return err
						}
					}
				}
			}
		}
		r.jobs += passJobs
		r.passRates = append(r.passRates, float64(passJobs)/(passMS/1000))
		if r.trace {
			cur := setup.e.Metrics()
			rec.engineDelta(prev, cur)
			prev = cur
			if err := exact.check(pass, rec.counts()); err != nil {
				return err
			}
			r.addPass(rec)
		}
	}
	r.alloc = alloc.since()
	if r.trace {
		r.finishLayers()
	}
	return nil
}

// opError marks a job that the engine refused or failed: it counts
// against ok_frac instead of aborting the run.
type opError struct{ err error }

func (e *opError) Error() string { return e.err.Error() }
func (e *opError) Unwrap() error { return e.err }

// runOne submits one job and waits for it.
func runOne(e *engine.Engine, s engine.Spec, noCache bool) (engine.JobView, error) {
	s.NoCache = noCache
	v, err := e.RunJob(context.Background(), s)
	if err != nil {
		return v, &opError{err}
	}
	if v.Status != engine.StatusDone || v.Result == nil {
		return v, &opError{fmt.Errorf("job %s finished %s: %s", v.ID, v.Status, v.Error)}
	}
	return v, nil
}

// sameResult requires a job's output to equal the set-up reference.
// CacheKey is set on every run, cached or not, so the whole record
// compares.
func sameResult(want, got *engine.Result) error {
	if digestOf(want) != digestOf(got) {
		return fmt.Errorf("output differs from the reference run (%d vs %d tests)", got.TestCount, want.TestCount)
	}
	return nil
}

// checkCoverage re-counts a result's detections by fault simulating its
// returned tests with the word-parallel simulator, which shares no code
// with the scalar simulator the engine uses.
func checkCoverage(s engine.Spec, res *engine.Result) error {
	c, err := experiments.LoadCircuit(s.Circuit)
	if err != nil {
		return err
	}
	d, err := experiments.PrepareCircuit(c, experiments.Params{NP: s.NP, NP0: s.NP0, Seed: s.Seed})
	if err != nil {
		return err
	}
	tests, err := parsedTests(c, res.Tests)
	if err != nil {
		return fmt.Errorf("%s: returned tests do not parse: %w", s.Circuit, err)
	}
	count := func(fcs []robust.FaultConditions) (int, error) { return bitsim.Count(c, tests, fcs) }
	p0, err := count(d.P0)
	if err != nil {
		return err
	}
	p1, err := count(d.P1)
	if err != nil {
		return err
	}
	var want [2]int
	switch s.Kind {
	case engine.KindEnrich:
		want = [2]int{res.P0Detected, res.P1Detected}
	case engine.KindGenerate:
		want = [2]int{res.P0Detected, res.AllDetected - res.P0Detected}
	case engine.KindFaultSim:
		first, err := bitsim.Run(c, tests, d.All())
		if err != nil {
			return err
		}
		if digestOf(first) != digestOf(res.FirstDetect) {
			return fmt.Errorf("%s: engine first-detect vector differs from bitsim.Run", s.Circuit)
		}
		want = [2]int{p0, p1}
		if res.Detected != p0+p1 {
			return fmt.Errorf("%s: engine detected %d, bitsim.Run %d", s.Circuit, res.Detected, p0+p1)
		}
	}
	if p0 != want[0] || p1 != want[1] {
		return fmt.Errorf("%s %s: engine reports P0/P1 detected %d/%d, independent simulation %d/%d",
			s.Kind, s.Circuit, want[0], want[1], p0, p1)
	}
	return nil
}

// addOutput folds a completed job's output shape into the means.
func (r *runner) addOutput(res *engine.Result) {
	r.outputs++
	r.testsSum += float64(res.TestCount)
	p0, p1 := detections(res)
	r.p0Sum += float64(p0)
	r.p1Sum += float64(p1)
}

// detections splits a result's detected faults into P0 and P1.
func detections(res *engine.Result) (p0, p1 int) {
	switch res.Kind {
	case engine.KindEnrich:
		return res.P0Detected, res.P1Detected
	case engine.KindGenerate:
		return res.P0Detected, res.AllDetected - res.P0Detected
	}
	for i, fd := range res.FirstDetect {
		switch {
		case fd < 0:
		case i < res.P0Size:
			p0++
		default:
			p1++
		}
	}
	return p0, p1
}

func (r *runner) addLatency(hit bool, v float64) {
	if hit {
		r.hit = append(r.hit, v)
	} else {
		r.cold = append(r.cold, v)
	}
}

// parsedTests parses test lines in the testio format, the engine's
// string form of a test set.
func parsedTests(c *circuit.Circuit, lines []string) ([]circuit.TwoPattern, error) {
	return testio.ReadTests(strings.NewReader(strings.Join(lines, "\n")), len(c.PIs))
}
