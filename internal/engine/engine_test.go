package engine

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"
)

// s27Spec is the fast spec most tests use (same scale as the cli
// tests: no budget, tiny P0).
func s27Spec(kind Kind) Spec {
	return Spec{Kind: kind, Circuit: "s27", NP: 0, NP0: 10, Seed: 1}
}

func waitDone(t *testing.T, e *Engine, id string) JobView {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	v, err := e.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	return v
}

func TestEngineGenerateJob(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	j, err := e.Submit(s27Spec(KindGenerate))
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, e, j.ID())
	if v.Status != StatusDone {
		t.Fatalf("status = %s (%s)", v.Status, v.Error)
	}
	r := v.Result
	if r == nil || r.TestCount == 0 || len(r.Tests) != r.TestCount {
		t.Fatalf("bad result: %+v", r)
	}
	if r.P0Detected == 0 || r.AllTotal < r.P0Size || r.AllDetected < r.P0Detected {
		t.Errorf("implausible detection counts: %+v", r)
	}
	if len(r.TestPatterns) != r.TestCount {
		t.Errorf("TestPatterns not mirrored: %d vs %d", len(r.TestPatterns), r.TestCount)
	}
	if r.CacheKey == "" || r.CircuitHash == "" || r.FaultDigest == "" {
		t.Error("missing identity digests")
	}
}

func TestEngineEnrichJob(t *testing.T) {
	e := New(Config{Workers: 2, SimWorkers: 4})
	defer e.Close()
	v, err := e.RunJob(context.Background(), s27Spec(KindEnrich))
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusDone {
		t.Fatalf("status = %s (%s)", v.Status, v.Error)
	}
	r := v.Result
	if r.AllDetected != r.P0Detected+r.P1Detected {
		t.Errorf("enrich counts inconsistent: %+v", r)
	}
	if r.P0Size+r.P1Size != r.AllTotal {
		t.Errorf("partition sizes inconsistent: %+v", r)
	}
}

func TestEngineFaultSimJob(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	gen, err := e.RunJob(context.Background(), s27Spec(KindGenerate))
	if err != nil || gen.Status != StatusDone {
		t.Fatalf("generate: %v %s", err, gen.Status)
	}
	spec := s27Spec(KindFaultSim)
	spec.Tests = gen.Result.Tests
	spec.Workers = 4
	sim, err := e.RunJob(context.Background(), spec)
	if err != nil || sim.Status != StatusDone {
		t.Fatalf("faultsim: %v %s", err, sim.Status)
	}
	// Same circuit, same fault set, same tests: the faultsim job must
	// reproduce the generate job's accidental detection count.
	if sim.Result.Detected != gen.Result.AllDetected {
		t.Errorf("faultsim detected %d, generate measured %d",
			sim.Result.Detected, gen.Result.AllDetected)
	}
	if len(sim.Result.FirstDetect) != sim.Result.AllTotal {
		t.Errorf("first_detect has %d entries, want %d",
			len(sim.Result.FirstDetect), sim.Result.AllTotal)
	}
}

// A faultsim job whose tests leave inputs at x runs on the same kernel
// for every shard count: the first-detect vectors are identical.
func TestEngineFaultSimXTests(t *testing.T) {
	ge := New(Config{Workers: 1})
	defer ge.Close()
	gen, err := ge.RunJob(context.Background(), s27Spec(KindGenerate))
	if err != nil || gen.Status != StatusDone {
		t.Fatalf("generate: %v %s", err, gen.Status)
	}
	// Open one first-pattern input per test, a different one each time.
	var tests []string
	for i, tp := range gen.Result.Tests {
		b := []byte(tp)
		b[i%strings.Index(tp, " ")] = 'x'
		tests = append(tests, string(b))
	}
	var firsts [][]int
	for _, workers := range []int{1, 4} {
		e := New(Config{Workers: 1, SimWorkers: workers})
		spec := s27Spec(KindFaultSim)
		spec.Tests = tests
		sim, err := e.RunJob(context.Background(), spec)
		e.Close()
		if err != nil || sim.Status != StatusDone {
			t.Fatalf("SimWorkers %d: %v %s", workers, err, sim.Status)
		}
		if sim.Result.Detected == 0 {
			t.Fatalf("SimWorkers %d: x-bearing tests detect nothing; comparison vacuous", workers)
		}
		firsts = append(firsts, sim.Result.FirstDetect)
	}
	if !reflect.DeepEqual(firsts[0], firsts[1]) {
		t.Errorf("first-detect vectors differ:\n%v\n%v", firsts[0], firsts[1])
	}
}

func TestEngineCacheHit(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	first, err := e.RunJob(context.Background(), s27Spec(KindEnrich))
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first run must not be a cache hit")
	}
	second, err := e.RunJob(context.Background(), s27Spec(KindEnrich))
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("identical resubmission must hit the cache")
	}
	if second.Result.CacheKey != first.Result.CacheKey {
		t.Errorf("cache keys differ: %s vs %s", first.Result.CacheKey, second.Result.CacheKey)
	}
	m := e.Metrics()
	if m.CacheHits != 1 || m.CacheMisses != 1 || m.CachePuts != 1 || m.CacheLen != 1 {
		t.Errorf("cache counters: %+v", m)
	}
	// A different seed is a different computation.
	diff := s27Spec(KindEnrich)
	diff.Seed = 2
	third, err := e.RunJob(context.Background(), diff)
	if err != nil {
		t.Fatal(err)
	}
	if third.CacheHit {
		t.Error("different seed must miss the cache")
	}
	// NoCache bypasses lookup and store.
	nc := s27Spec(KindEnrich)
	nc.NoCache = true
	fourth, err := e.RunJob(context.Background(), nc)
	if err != nil {
		t.Fatal(err)
	}
	if fourth.CacheHit {
		t.Error("no_cache run must not report a cache hit")
	}
	if e.CacheLen() != 2 {
		t.Errorf("cache len = %d, want 2", e.CacheLen())
	}
}

func TestEngineWorkersShareCacheKey(t *testing.T) {
	// Workers is an execution knob, not an identity field: a serial
	// and a sharded run of the same job must share a cache entry.
	e := New(Config{Workers: 1})
	defer e.Close()
	serial := s27Spec(KindGenerate)
	serial.Workers = 1
	sharded := s27Spec(KindGenerate)
	sharded.Workers = 8
	v1, err := e.RunJob(context.Background(), serial)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := e.RunJob(context.Background(), sharded)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.CacheHit {
		t.Error("sharded rerun of a cached serial job must hit the cache")
	}
	if v1.Result.CacheKey != v2.Result.CacheKey {
		t.Error("workers changed the cache key")
	}
}

func TestEngineValidation(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	bad := []Spec{
		{Kind: "explode", Circuit: "s27"},
		{Kind: KindGenerate},
		{Kind: KindGenerate, Circuit: "s27", Heuristic: "bogus"},
		{Kind: KindFaultSim, Circuit: "s27"},
		{Kind: KindGenerate, Circuit: "s27", NP: -1},
	}
	for i, spec := range bad {
		if _, err := e.Submit(spec); err == nil {
			t.Errorf("spec %d must be rejected", i)
		}
	}
	// An unknown circuit passes validation but fails the job.
	v, err := e.RunJob(context.Background(), Spec{Kind: KindGenerate, Circuit: "ghost"})
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusFailed || v.Error == "" {
		t.Errorf("unknown circuit: status %s error %q", v.Status, v.Error)
	}
	m := e.Metrics()
	if m.JobsFailed != 1 {
		t.Errorf("jobs_failed = %d, want 1", m.JobsFailed)
	}
}

func TestEngineUnknownJobAndClose(t *testing.T) {
	e := New(Config{Workers: 1})
	if _, err := e.Wait(context.Background(), "j999"); err != ErrUnknownJob {
		t.Errorf("Wait unknown = %v", err)
	}
	if e.Cancel("j999") {
		t.Error("Cancel unknown must report false")
	}
	e.Close()
	if _, err := e.Submit(s27Spec(KindGenerate)); err != ErrClosed {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
	e.Close() // idempotent
}

func TestEngineJobsListing(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	var ids []string
	for i := 0; i < 3; i++ {
		spec := s27Spec(KindGenerate)
		spec.Seed = int64(i + 1)
		j, err := e.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID())
	}
	for _, id := range ids {
		waitDone(t, e, id)
	}
	views := e.Jobs()
	if len(views) != 3 {
		t.Fatalf("listed %d jobs, want 3", len(views))
	}
	for i, v := range views {
		if v.ID != ids[i] {
			t.Errorf("job %d listed out of submission order", i)
		}
		if v.Status != StatusDone {
			t.Errorf("job %s status %s", v.ID, v.Status)
		}
	}
}

func TestEngineDeadline(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	spec := Spec{Kind: KindEnrich, Circuit: "s641", NP: 2000, NP0: 300, Seed: 1, TimeoutMS: 30}
	v, err := e.RunJob(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusFailed {
		t.Fatalf("deadline-bounded job status = %s, want failed", v.Status)
	}
	if e.CacheLen() != 0 {
		t.Error("timed-out job must not be cached")
	}
}
