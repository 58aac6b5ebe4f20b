package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
)

// runTiny runs one workload at its tiny size (one pass) and returns the
// report and the parsed result line.
func runTiny(t *testing.T, workload string, trace bool) (string, result) {
	t.Helper()
	r := &runner{seed: 7, seconds: 0.01, trace: trace, tiny: true}
	var out bytes.Buffer
	res, err := r.execute(workload, workloads[workload], t.TempDir(), &out)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back result
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	return out.String(), back
}

func TestWorkloadsPrintEveryMetricWithUnit(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			report, res := runTiny(t, name, trace)
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, d.Name, m, d.Unit)
				}
				if !strings.Contains(report, d.Name) {
					t.Errorf("%s trace=%v: report does not name %s", name, trace, d.Name)
				}
				if !trace && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s reads 0", name, d.Name)
				}
			}
		}
	}
}

// TestTablesMatchBenchmarkJSON keeps the Go metric tables and
// BENCHMARK.json in step.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
}

// TestTamperedResultsTripChecks shows that each output check rejects a
// result that differs from what the program computed.
func TestTamperedResultsTripChecks(t *testing.T) {
	e := engine.New(engine.Config{Workers: 1, SimWorkers: 1})
	defer e.Close()
	grade, err := gradeSpecs(3, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range append(enrichSpecs(3, true), grade...) {
		v, err := runOne(e, s, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkCoverage(s, v.Result); err != nil {
			t.Fatalf("%s %s: untampered result fails: %v", s.Kind, s.Circuit, err)
		}
		tampered := *v.Result
		switch s.Kind {
		case engine.KindFaultSim:
			tampered.FirstDetect = append([]int(nil), v.Result.FirstDetect...)
			tampered.FirstDetect[0] = len(tampered.Tests) - 1 - tampered.FirstDetect[0]
		default:
			tampered.P0Detected++
		}
		if checkCoverage(s, &tampered) == nil {
			t.Errorf("%s %s: coverage check accepted a tampered count", s.Kind, s.Circuit)
		}
		if sameResult(v.Result, &tampered) == nil {
			t.Errorf("%s %s: reference check accepted a tampered result", s.Kind, s.Circuit)
		}
		rec := newPassRecord()
		r := &runner{}
		if err := rec.replay(r, 0, s, v.Result); err != nil {
			t.Fatalf("%s %s: replay of the untampered job fails: %v", s.Kind, s.Circuit, err)
		}
		if s.Kind != engine.KindFaultSim {
			tests := append([]string(nil), v.Result.Tests...)
			tests[0] = strings.Replace(tests[0], "0", "1", 1)
			if rec.replay(r, 0, s, &engine.Result{Tests: tests}) == nil {
				t.Errorf("%s %s: replay accepted a tampered test set", s.Kind, s.Circuit)
			}
		}
	}
}

func TestTamperedFleetReferenceTripsCheck(t *testing.T) {
	hot := hotSpecs(5, true)
	f, err := bootFleet(t.TempDir(), hot)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	list := []request{{class: "hot", hot: 0}, {class: "batch", hot: 1, cold: "c17"}}
	var seq atomic.Int64
	p := &fleetPass{f: f, list: list, coldSeq: &seq}
	if _, err := p.run(); err != nil {
		t.Fatalf("untampered pass: %v", err)
	}
	f.hotRef[0] = digestOf("not the warm-up output")
	if _, err := p.run(); err == nil || !strings.Contains(err.Error(), "differ") {
		t.Errorf("pass with a tampered hot reference: err = %v", err)
	}
}

func TestExactCountersCatchDrift(t *testing.T) {
	var e exactCounters
	p := newPassRecord()
	p.vals = map[string]float64{"justify.calls": 10, "pathenum.ms": 3}
	if err := e.check(0, p.counts()); err != nil {
		t.Fatal(err)
	}
	p.vals = map[string]float64{"justify.calls": 10, "pathenum.ms": 4, "core.compaction_ms": 9}
	if err := e.check(1, p.counts()); err != nil {
		t.Errorf("times must be exempt: %v", err)
	}
	p.vals["justify.calls"] = 11
	if err := e.check(2, p.counts()); err == nil {
		t.Error("a changed work count passed")
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	tv := obs.TraceView{Spans: []obs.SpanView{
		{ID: 1, Name: "core", StartMS: 0, DurMS: 10},
		{ID: 2, Parent: 1, Name: "compaction", StartMS: 1, DurMS: 2},
		{ID: 3, Parent: 1, Name: "compaction", StartMS: 2, DurMS: 3}, // overlaps the first
		{ID: 4, Parent: 1, Name: "simulation", StartMS: 8, DurMS: 4}, // runs past the parent
		{ID: 5, Parent: 2, Name: "justify", StartMS: 1, DurMS: 1},    // a grandchild
	}}
	got := selfTimes("t", tv)
	if got[0].SelfMS != 4 || got[1].SelfMS != 1 || got[4].SelfMS != 1 {
		t.Errorf("self times %v %v %v, want 4 1 1", got[0].SelfMS, got[1].SelfMS, got[4].SelfMS)
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fleet-mix", "--trace", "2"},
		{"--workload", "fleet-mix", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
