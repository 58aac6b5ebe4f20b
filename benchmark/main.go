// Command benchmark is the repository's end-to-end benchmark. It runs
// one seeded workload against the program's public entry points for a
// fixed time, checks every output, and prints a human-readable report
// followed by one JSON result line:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of
// BENCHMARK.json; with -trace 1 they are the per-layer metrics, taken
// from spans the benchmark records around its calls into each layer and
// from the spans and metric families the program already emits.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash benchmark/run.sh --workload enrich-atpg --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and the metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics of an untraced run, in report order.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"tests", "count", "lower"},
	{"p0_detected", "count", "higher"},
	{"p1_detected", "count", "higher"},
	{"hit_p50_ms", "ms", "lower"},
	{"hit_p95_ms", "ms", "lower"},
	{"cold_p50_ms", "ms", "lower"},
	{"cold_p95_ms", "ms", "lower"},
	{"alloc_mb_per_job", "MB", "lower"},
	{"ok_frac", "frac", "higher"},
}

// perLayer are the metrics of a traced run. Every workload prints all
// of them; a layer the workload does not reach reads 0.
var perLayer = []metricDef{
	{"experiments.load_ms", "ms", "lower"},
	{"pathenum.ms", "ms", "lower"},
	{"pathenum.extensions", "count", "lower"},
	{"pathenum.faults", "count", "higher"},
	{"pathenum.evicted", "count", "lower"},
	{"robust.screen_ms", "ms", "lower"},
	{"robust.screen_kept", "count", "higher"},
	{"robust.screen_eliminated", "count", "lower"},
	{"core.generation_ms", "ms", "lower"},
	{"core.compaction_ms", "ms", "lower"},
	{"core.simdrop_ms", "ms", "lower"},
	{"core.secondary_accepts", "count", "higher"},
	{"core.secondary_rejects", "count", "lower"},
	{"core.cheap_accepts", "count", "higher"},
	{"core.accept_ratio", "frac", "higher"},
	{"core.regenerations", "count", "lower"},
	{"core.primary_aborts", "count", "lower"},
	{"justify.calls", "count", "lower"},
	{"justify.successes", "count", "higher"},
	{"justify.success_ratio", "frac", "higher"},
	{"justify.probes", "count", "lower"},
	{"justify.decisions", "count", "lower"},
	{"justify.backtracks", "count", "lower"},
	{"faultsim.ms", "ms", "lower"},
	{"faultsim.pairs", "count", "lower"},
	{"faultsim.detected", "count", "higher"},
	{"testio.parse_ms", "ms", "lower"},
	{"engine.queue_wait_ms", "ms", "lower"},
	{"engine.prepare_ms", "ms", "lower"},
	{"engine.cache_lookup_ms", "ms", "lower"},
	{"engine.cache_hit_ratio", "frac", "higher"},
	{"engine.jobs_shed", "count", "lower"},
	{"engine.jobs_failed", "count", "lower"},
	{"store.hits", "count", "higher"},
	{"store.misses", "count", "lower"},
	{"store.puts", "count", "lower"},
	{"store.bytes", "bytes", "lower"},
	{"cluster.submit_ms", "ms", "lower"},
	{"cluster.wait_ms", "ms", "lower"},
	{"cluster.batch_ms", "ms", "lower"},
	{"cluster.route_ms", "ms", "lower"},
	{"cluster.forward_ms", "ms", "lower"},
	{"cluster.affinity_ratio", "frac", "higher"},
	{"cluster.spillovers", "count", "lower"},
	{"cluster.replication_installs", "count", "higher"},
	{"cluster.replication_failures", "count", "lower"},
	{"obs.trace_overhead_frac", "frac", "lower"},
	{"obs.spans_dropped", "count", "lower"},
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(*runner) error{
	"enrich-atpg":    runEnrichATPG,
	"faultsim-grade": runFaultsimGrade,
	"fleet-mix":      runFleetMix,
}

// setupReps is how many times a run builds its set-up; setup_s is the
// median, so one slow build does not move it.
const setupReps = 3

// runner carries one run's settings and collects what it measures.
type runner struct {
	seed    int64
	seconds float64
	trace   bool
	// tiny shrinks every workload to seconds-long passes; the tests
	// use it, the command line never does.
	tiny bool
	// dir holds the run's scratch state (the fleet's stores).
	dir string

	setup     []float64 // seconds per set-up repetition
	passRates []float64 // jobs per second of each measured pass
	hit, cold []float64 // per-job latency samples, ms; +Inf = failed
	attempted int
	failed    int
	jobs      int    // completed jobs in the measured window
	alloc     uint64 // bytes allocated in the measured window

	// Output shape, per completed job (tests, P0/P1 detections).
	testsSum, p0Sum, p1Sum float64
	outputs                int
	digest                 string

	// passVals are the traced passes' per-layer values; layers is
	// their reduction to one value per metric.
	passVals []map[string]float64
	layers   map[string]float64
	// spans collects every recorded span tree, written at exit.
	spans []spanDump
}

// spanDump is one recorded span tree, as written to the trace file.
type spanDump struct {
	Label string     `json:"label"`
	Spans []spanView `json:"spans"`
}

// spanView is one span with its computed self time.
type spanView struct {
	ID      string  `json:"id"`
	Parent  string  `json:"parent,omitempty"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload name: enrich-atpg, faultsim-grade or fleet-mix")
		seed     = fs.Int64("seed", 1, "workload seed; equal seeds give equal inputs")
		seconds  = fs.Float64("seconds", 20, "measured time per run")
		trace    = fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
		outDir   = fs.String("out", filepath.Join(".bench_build", "runs"), "directory for scratch state and the span file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "benchmark: need -workload (enrich-atpg, faultsim-grade, fleet-mix), -seconds > 0, -trace 0|1\n")
		return 2
	}
	r := &runner{seed: *seed, seconds: *seconds, trace: *trace == 1}
	res, err := r.execute(*workload, fn, *outDir, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", *workload, err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

// execute runs one workload and assembles its result. A failed output
// check is an error: the run prints no result.
func (r *runner) execute(name string, fn func(*runner) error, outDir string, report io.Writer) (*result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r.dir = dir
	if err := fn(r); err != nil {
		return nil, err
	}
	if r.jobs == 0 || r.attempted == 0 {
		return nil, fmt.Errorf("no job completed in %gs", r.seconds)
	}
	if r.trace {
		if err := r.writeSpans(filepath.Join(outDir, fmt.Sprintf("%s-seed%d.spans.json", name, r.seed))); err != nil {
			return nil, err
		}
	}
	res := &result{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	defs := endToEnd
	vals := r.endToEndValues()
	if r.trace {
		defs, vals = perLayer, r.layers
	}
	fmt.Fprintf(report, "workload %s seed %d trace %d: attempted %d failed %d, output digest %s\n",
		name, r.seed, b2i(r.trace), r.attempted, r.failed, r.digest)
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsInf(v, 1) {
			// A percentile that lands on a failed request: JSON has no
			// infinity, so it reads as the largest number.
			v = math.MaxFloat64
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(report, "  %-30s %14.4f %-6s%s\n", d.Name, v, d.Unit, r.sampleNote(d.Name))
	}
	return res, nil
}

// endToEndValues reduces the measured samples to the end-to-end table.
func (r *runner) endToEndValues() map[string]float64 {
	n := float64(max(r.outputs, 1))
	return map[string]float64{
		"setup_s":          median(r.setup),
		"jobs_per_s":       median(r.passRates),
		"tests":            r.testsSum / n,
		"p0_detected":      r.p0Sum / n,
		"p1_detected":      r.p1Sum / n,
		"hit_p50_ms":       quantile(r.hit, 0.50),
		"hit_p95_ms":       quantile(r.hit, 0.95),
		"cold_p50_ms":      quantile(r.cold, 0.50),
		"cold_p95_ms":      quantile(r.cold, 0.95),
		"alloc_mb_per_job": float64(r.alloc) / float64(r.jobs) / (1 << 20),
		"ok_frac":          float64(r.attempted-r.failed) / float64(r.attempted),
	}
}

// sampleNote states the sample count behind a latency percentile.
func (r *runner) sampleNote(name string) string {
	switch name {
	case "hit_p50_ms", "hit_p95_ms":
		return fmt.Sprintf("  n=%d", len(r.hit))
	case "cold_p50_ms", "cold_p95_ms":
		return fmt.Sprintf("  n=%d", len(r.cold))
	case "jobs_per_s":
		return fmt.Sprintf("  median of %d passes (%.4g to %.4g)", len(r.passRates), quantile(r.passRates, 0), quantile(r.passRates, 1))
	case "setup_s":
		return fmt.Sprintf("  median of %d (%.4g to %.4g)", len(r.setup), quantile(r.setup, 0), quantile(r.setup, 1))
	}
	return ""
}

// writeSpans writes every span tree the run recorded.
func (r *runner) writeSpans(path string) error {
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// measureSetup runs build setupReps times, keeping the last instance
// and tearing the others down, and records each build's duration.
func measureSetup[T any](r *runner, build func() (T, error), teardown func(T)) (T, error) {
	var last T
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, err
		}
		r.setup = append(r.setup, time.Since(start).Seconds())
		if i < setupReps-1 {
			teardown(v)
		}
		last = v
	}
	return last, nil
}

// allocMeter measures bytes allocated by the whole process.
type allocMeter struct{ start uint64 }

func startAlloc() allocMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMeter{ms.TotalAlloc}
}

func (a allocMeter) since() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - a.start
}

// exactCounters checks that a pass's work counts equal the first
// pass's. Times and ratios of times are exempt; everything else is a
// pure function of the seed and must repeat exactly.
type exactCounters struct {
	first map[string]float64
}

func (e *exactCounters) check(pass int, counts map[string]float64) error {
	if e.first == nil {
		e.first = counts
		return nil
	}
	for _, m := range []map[string]float64{e.first, counts} {
		for k := range m {
			if counts[k] != e.first[k] {
				return fmt.Errorf("pass %d: work counter %s = %v, first pass %v: the program lost seed-determinism", pass, k, counts[k], e.first[k])
			}
		}
	}
	return nil
}

// median and quantile interpolate linearly between the two nearest
// order statistics, so a fixed job mix whose quantile falls between
// two kinds of job does not read just one job's time. An empty sample
// reads as NaN, which fails the metric check in execute.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	switch {
	case frac == 0:
		return s[lo]
	case math.IsInf(s[lo+1], 1): // a failed request
		return s[lo+1]
	}
	return s[lo] + (s[lo+1]-s[lo])*frac
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// digestOf hashes the canonical JSON of v.
func digestOf(v any) string {
	b, _ := json.Marshal(v) // v is a plain data tree; Marshal cannot fail
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}
