package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/store"
)

// fleet-mix boots a coordinator over two backends on loopback, all in
// this process, configured as pdfd's defaults except where noted, and
// drives it from a closed loop of clients over HTTP.

const (
	// fleetCacheSize is each backend's memory LRU (pdfd -cache). It is
	// smaller than the hot set, so part of the hits read through the
	// durable store.
	fleetCacheSize = 4
)

// fleetClients is the closed loop's width: one client per CPU.
func fleetClients() int { return max(1, min(2, runtime.NumCPU())) }

// hotSpecs are the mid-size enrichment jobs whose repeats are cache
// hits; the set-up computes each once.
func hotSpecs(seed int64, tiny bool) []engine.Spec {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	circuits, np, np0 := []string{"s641", "s953", "b09"}, 400, 80
	n := 12
	if tiny {
		circuits, np, np0, n = []string{"s27", "c17"}, 0, 4, 6
	}
	specs := make([]engine.Spec, n)
	for i := range specs {
		specs[i] = engine.Spec{Kind: engine.KindEnrich, Circuit: circuits[i%len(circuits)], NP: np, NP0: np0, Seed: 1 + rng.Int63n(1<<30)}
	}
	return specs
}

// coldSpec is a cheap generation job. The branch-and-bound justifier
// makes its output independent of the seed, so every fresh seed is a
// cache miss that still does the same work and returns the same tests.
func coldSpec(circuit string, seed int64) engine.Spec {
	s := engine.Spec{Kind: engine.KindGenerate, Circuit: circuit, NP0: 4, Seed: seed, UseBnB: true}
	if circuit == "b09" {
		s.NP, s.NP0 = 100, 20
	}
	return s
}

var coldCircuits = []string{"s27", "c17", "b09"}

// request is one entry of the seeded request list.
type request struct {
	class string // "hot", "cold" or "batch"
	hot   int    // hot spec index (hot and batch)
	cold  string // cold circuit (cold and batch)
}

// The pass mix: hot-only requests, cold-only requests and two-job
// batches. Every pass and every seed has the same composition (each hot
// spec 3 times, each cold circuit 6 times), so the seed changes the
// order and the hot specs' ATPG seeds but not the share of each kind of
// work.
const (
	passHot   = 30
	passCold  = 12
	passBatch = 6
)

// passList is the seeded request list of one pass: 62.5% hits, 25%
// cold jobs and 12.5% batches of one hot and one cold job.
func passList(seed int64, nHot int) []request {
	rng := rand.New(rand.NewSource(seed))
	var out []request
	hot, cold := 0, 0
	add := func(class string, n int) {
		for i := 0; i < n; i++ {
			q := request{class: class}
			if class != "cold" {
				q.hot = hot % nHot
				hot++
			}
			if class != "hot" {
				q.cold = coldCircuits[cold%len(coldCircuits)]
				cold++
			}
			out = append(out, q)
		}
	}
	add("hot", passHot)
	add("cold", passCold)
	add("batch", passBatch)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// fleet is one booted fleet.
type fleet struct {
	coord    *cluster.Coordinator
	servers  []*http.Server
	engines  []*engine.Engine
	stores   []*store.Store
	base     string   // coordinator URL
	backends []string // backend URLs
	client   *http.Client

	hot     []engine.Spec
	hotRef  []string          // digest of each hot spec's tests
	coldRef map[string]string // circuit → digest of its tests
}

// serve starts an HTTP server for h on a loopback port.
func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed at close
	return "http://" + ln.Addr().String(), nil
}

func bootFleet(dir string, hot []engine.Spec) (*fleet, error) {
	f := &fleet{
		hot:     hot,
		coldRef: map[string]string{},
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     fleetClients(),
			MaxIdleConnsPerHost: fleetClients(),
		}},
	}
	// pdfd's worker defaults (GOMAXPROCS workers, 4 simulation shards),
	// capped at the CPU count.
	workers, simWorkers := runtime.NumCPU(), min(runtime.NumCPU(), 4)
	var confs []cluster.BackendConf
	for i := 0; i < 2; i++ {
		st, err := store.Open(store.Config{Dir: filepath.Join(dir, fmt.Sprintf("store-b%d", i))})
		if err != nil {
			f.close()
			return nil, err
		}
		f.stores = append(f.stores, st)
		e := engine.New(engine.Config{
			Workers:        workers,
			SimWorkers:     simWorkers,
			QueueDepth:     64,
			CacheSize:      fleetCacheSize,
			DefaultTimeout: 10 * time.Minute,
			TraceSample:    1,
			Store:          st,
		})
		f.engines = append(f.engines, e)
		u, err := f.serve(engine.NewServer(e))
		if err != nil {
			f.close()
			return nil, err
		}
		f.backends = append(f.backends, u)
		confs = append(confs, cluster.BackendConf{Name: fmt.Sprintf("b%d", i), URL: u})
	}
	coord, err := cluster.New(cluster.Config{
		Backends:          confs,
		HealthInterval:    2 * time.Second,
		ReplicationFactor: 2,
		TraceSample:       1,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.coord = coord
	if f.base, err = f.serve(cluster.NewServer(coord)); err != nil {
		f.close()
		return nil, err
	}
	// Hot-set fill, then one cold job per circuit as the warm-up; both
	// record the reference outputs the measured jobs must reproduce.
	for _, s := range hot {
		v, err := f.submitWait(context.Background(), s)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("hot-set fill: %w", err)
		}
		f.hotRef = append(f.hotRef, testsDigest(v))
	}
	for i, name := range coldCircuits {
		v, err := f.submitWait(context.Background(), coldSpec(name, int64(-1-i)))
		if err != nil {
			f.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		f.coldRef[name] = testsDigest(v)
	}
	return f, nil
}

func (f *fleet) close() {
	for _, s := range f.servers {
		s.Close()
	}
	if f.coord != nil {
		f.coord.Close()
	}
	for _, e := range f.engines {
		e.Close()
	}
	for _, s := range f.stores {
		s.Close()
	}
	f.client.CloseIdleConnections()
}

func testsDigest(v *engine.JobView) string {
	if v.Result == nil {
		return ""
	}
	return digestOf(v.Result.Tests)
}

// refusal is a submission the fleet answered with an error status
// (429, 502, 503 or any other): it counts as failed and is not retried.
type refusal struct {
	status int
	body   string
}

func (e *refusal) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.body) }

// do sends one request, carrying the context's trace identity as a
// traceparent header, and returns the status and body.
func (f *fleet) do(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if tc, ok := obs.TraceContextFrom(ctx); ok {
		req.Header.Set("traceparent", tc.Traceparent())
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// submit posts one job and returns its routable ID.
func (f *fleet) submit(ctx context.Context, s engine.Spec) (string, error) {
	body, _ := json.Marshal(s) // a Spec always marshals
	sctx, span := obs.StartSpan(ctx, "cluster.submit")
	status, b, err := f.do(sctx, http.MethodPost, f.base+"/v1/jobs", body)
	span.End()
	if err != nil {
		return "", &refusal{status, err.Error()}
	}
	if status != http.StatusAccepted {
		return "", &refusal{status, string(b)}
	}
	var v engine.JobView
	if err := json.Unmarshal(b, &v); err != nil {
		return "", err
	}
	return v.ID, nil
}

// wait long-polls a job to its terminal state.
func (f *fleet) wait(ctx context.Context, id string) (*engine.JobView, error) {
	wctx, span := obs.StartSpan(ctx, "cluster.wait")
	defer span.End()
	for {
		status, b, err := f.do(wctx, http.MethodGet, f.base+"/v1/jobs/"+id+"?wait=30s", nil)
		if err != nil {
			return nil, &refusal{status, err.Error()}
		}
		if status != http.StatusOK {
			return nil, &refusal{status, string(b)}
		}
		var v engine.JobView
		if err := json.Unmarshal(b, &v); err != nil {
			return nil, err
		}
		if !v.Status.Terminal() {
			continue
		}
		if v.Status != engine.StatusDone {
			return &v, &refusal{status, "job " + string(v.Status) + ": " + v.Error}
		}
		return &v, nil
	}
}

func (f *fleet) submitWait(ctx context.Context, s engine.Spec) (*engine.JobView, error) {
	id, err := f.submit(ctx, s)
	if err != nil {
		return nil, err
	}
	return f.wait(ctx, id)
}

// batch posts several jobs in one /v1/jobs:batch request and returns
// each job's ID, or "" for a rejected entry.
func (f *fleet) batch(ctx context.Context, specs []engine.Spec) ([]string, error) {
	body, _ := json.Marshal(map[string]any{"jobs": specs}) // plain data
	bctx, span := obs.StartSpan(ctx, "cluster.batch")
	status, b, err := f.do(bctx, http.MethodPost, f.base+"/v1/jobs:batch", body)
	span.End()
	if err != nil {
		return nil, &refusal{status, err.Error()}
	}
	if status != http.StatusOK {
		return nil, &refusal{status, string(b)}
	}
	var out cluster.BatchResponse
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, err
	}
	if len(out.Results) != len(specs) {
		return nil, fmt.Errorf("batch answered %d items for %d jobs", len(out.Results), len(specs))
	}
	ids := make([]string, len(specs))
	for _, it := range out.Results {
		if it.Index >= 0 && it.Index < len(ids) && it.Status == "accepted" {
			ids[it.Index] = it.ID
		}
	}
	return ids, nil
}

// sample is one job's outcome as a client saw it.
type sample struct {
	hit    bool
	ms     float64 // submit to terminal; +Inf when refused or failed
	view   *engine.JobView
	trace  *obs.Trace
	failed bool
}

// fleetPass runs one pass of the request list from the closed loop.
// Each client takes the next request when its previous one is done.
type fleetPass struct {
	f       *fleet
	list    []request
	coldSeq *atomic.Int64
	traced  bool
}

// job is one job of a request: its spec and what it should return.
type job struct {
	spec engine.Spec
	want string
	hot  bool
}

func (p *fleetPass) jobsOf(q request) []job {
	hot := job{spec: p.f.hot[q.hot], want: p.f.hotRef[q.hot], hot: true}
	cold := func() job {
		return job{spec: coldSpec(q.cold, p.coldSeq.Add(1)), want: p.f.coldRef[q.cold]}
	}
	switch q.class {
	case "hot":
		return []job{hot}
	case "cold":
		return []job{cold()}
	}
	return []job{hot, cold()}
}

// run executes the pass and returns every job's sample. An output that
// differs from its reference is an error.
func (p *fleetPass) run() ([]sample, error) {
	var (
		mu      sync.Mutex
		out     []sample
		next    atomic.Int64
		firstEr error
		wg      sync.WaitGroup
	)
	for c := 0; c < fleetClients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(p.list) {
					return
				}
				ss, err := p.one(p.list[i])
				mu.Lock()
				out = append(out, ss...)
				if err != nil && firstEr == nil {
					firstEr = err
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	return out, firstEr
}

// one executes one request: submit (or batch), then wait on each job.
func (p *fleetPass) one(q request) ([]sample, error) {
	jobs := p.jobsOf(q)
	ctx := context.Background()
	var tr *obs.Trace
	if p.traced {
		tr = obs.NewTrace(replaySpanLimit)
		ctx = obs.WithTraceContext(obs.NewContext(ctx, tr), tr.Context())
	}
	start := time.Now()
	ids := make([]string, len(jobs))
	var subErr error
	if len(jobs) == 1 {
		ids[0], subErr = p.f.submit(ctx, jobs[0].spec)
	} else {
		specs := []engine.Spec{jobs[0].spec, jobs[1].spec}
		var got []string
		if got, subErr = p.f.batch(ctx, specs); subErr == nil {
			copy(ids, got)
		}
	}
	out := make([]sample, len(jobs))
	for i, j := range jobs {
		s := sample{hit: j.hot, ms: inf, trace: tr}
		if subErr != nil || ids[i] == "" {
			s.failed = true
			out[i] = s
			continue
		}
		v, err := p.f.wait(ctx, ids[i])
		if err != nil {
			var ref *refusal
			if !errors.As(err, &ref) {
				return out, err
			}
			s.failed = true
			out[i] = s
			continue
		}
		if v.CacheHit != j.hot {
			return out, fmt.Errorf("job %s (%s %s): cache_hit=%v, want %v", v.ID, j.spec.Kind, j.spec.Circuit, v.CacheHit, j.hot)
		}
		if got := testsDigest(v); got != j.want {
			return out, fmt.Errorf("job %s (%s %s): tests differ from the set-up reference", v.ID, j.spec.Kind, j.spec.Circuit)
		}
		s.ms, s.view = ms(time.Since(start)), v
		out[i] = s
	}
	return out, nil
}

func runFleetMix(r *runner) error {
	hot := hotSpecs(r.seed, r.tiny)
	n := 0
	f, err := measureSetup(r, func() (*fleet, error) {
		n++
		return bootFleet(filepath.Join(r.dir, fmt.Sprintf("fleet%d", n)), hot)
	}, func(f *fleet) { f.close() })
	if err != nil {
		return err
	}
	defer f.close()
	r.digest = digestOf([]any{f.hotRef, f.coldRef})

	list := passList(r.seed, len(hot))
	if r.tiny {
		list = list[:8]
	}
	var coldSeq atomic.Int64
	coldSeq.Store(r.seed << 20)
	var exact exactCounters
	var tracedMS, untracedMS []float64
	prev, err := f.scrape()
	if err != nil {
		return err
	}
	alloc := startAlloc()
	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	// A traced run alternates untraced and traced passes, so the two
	// rates it compares share the same fleet state; it runs at least
	// one of each.
	for pass := 0; pass < 1+b2i(r.trace) || time.Now().Before(deadline); pass++ {
		traced := r.trace && pass%2 == 1
		p := &fleetPass{f: f, list: list, coldSeq: &coldSeq, traced: traced}
		t0 := time.Now()
		samples, err := p.run()
		elapsed := time.Since(t0)
		if err != nil {
			return fmt.Errorf("pass %d: %w", pass, err)
		}
		done := 0
		for _, s := range samples {
			r.attempted++
			if s.failed {
				r.failed++
			} else {
				done++
				r.addOutput(s.view.Result)
			}
			r.addLatency(s.hit, s.ms)
		}
		r.jobs += done
		r.passRates = append(r.passRates, float64(done)/elapsed.Seconds())
		if !r.trace {
			continue
		}
		if traced {
			tracedMS = append(tracedMS, ms(elapsed))
		} else {
			untracedMS = append(untracedMS, ms(elapsed))
		}
		rec := newPassRecord()
		if err := f.settle(); err != nil {
			return err
		}
		cur, err := f.scrape()
		if err != nil {
			return err
		}
		rec.fleetDelta(prev, cur)
		prev = cur
		for _, s := range samples {
			if s.view != nil {
				rec.addEngineJob(*s.view, false, 0)
				rec.addPrepare(s.view.Trace)
			}
		}
		if traced {
			if err := r.addClientSpans(f, rec, pass, samples); err != nil {
				return err
			}
		}
		if err := exact.check(pass, fleetExact(rec.counts())); err != nil {
			return err
		}
		if traced {
			r.passVals = append(r.passVals, rec.vals)
		}
	}
	r.alloc = alloc.since()
	if r.trace {
		r.finishLayers()
		if len(tracedMS) > 0 && len(untracedMS) > 0 {
			r.layers["obs.trace_overhead_frac"] = median(tracedMS)/median(untracedMS) - 1
		}
	}
	return nil
}

// fleetExact drops the counters that depend on how the two clients'
// requests interleave: which hits the memory LRU still holds (so
// store hits and misses) and how far the asynchronous replication has
// got (so store puts and bytes on the replica).
func fleetExact(counts map[string]float64) map[string]float64 {
	for _, k := range []string{"store.hits", "store.misses", "store.puts", "store.bytes", "cluster.replication_installs"} {
		delete(counts, k)
	}
	return counts
}

// settle waits, at most 10 s, until the coordinator's replication
// counters stop moving between two scrapes 50 ms apart, so that a
// traced pass's deltas hold its own replication work and little of the
// next pass's. Replication stays asynchronous, which is why its counters
// are left out of the exact check.
func (f *fleet) settle() error {
	deadline := time.Now().Add(10 * time.Second)
	last := -1.0
	for time.Now().Before(deadline) {
		m, err := f.scrapeOne(f.base)
		if err != nil {
			return err
		}
		n := m["pdfd_cluster_replication_installs_total"] + m["pdfd_cluster_replication_failures_total"] + m["pdfd_cluster_replication_watches_total"]
		if n == last {
			return nil
		}
		last = n
		time.Sleep(50 * time.Millisecond)
	}
	return nil
}

// metrics is a scrape of every node: family{labels} → value, with the
// node's name as a prefix ("coord", "b0", "b1").
type metrics map[string]float64

func (f *fleet) scrape() (metrics, error) {
	out := metrics{}
	urls := append([]string{f.base}, f.backends...)
	names := []string{"coord", "b0", "b1"}
	for i, u := range urls {
		m, err := f.scrapeOne(u)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			out[names[i]+"|"+k] = v
		}
	}
	return out, nil
}

// scrapeOne reads a node's Prometheus exposition.
func (f *fleet) scrapeOne(base string) (map[string]float64, error) {
	status, b, err := f.do(context.Background(), http.MethodGet, base+"/v1/metrics", nil)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d: %v", base, status, err)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta adds the deltas of every series of a family on the given nodes
// whose labels contain all of want.
func delta(prev, cur metrics, family string, nodes []string, want ...string) float64 {
	total := 0.0
	for k, v := range cur {
		node, series, _ := strings.Cut(k, "|")
		name, labels, _ := strings.Cut(series, "{")
		if name != family || !slices.Contains(nodes, node) {
			continue
		}
		ok := true
		for _, w := range want {
			ok = ok && strings.Contains(labels, w)
		}
		if ok {
			total += v - prev[k]
		}
	}
	return total
}

var (
	backendNodes = []string{"b0", "b1"}
	coordNode    = []string{"coord"}
)

// fleetDelta reads a pass's counters from the metric families the
// program exports.
func (p *passRecord) fleetDelta(prev, cur metrics) {
	d := func(family string, nodes []string, want ...string) float64 {
		return delta(prev, cur, family, nodes, want...)
	}
	v := p.vals
	hits, misses := d("pdfd_cache_hits_total", backendNodes), d("pdfd_cache_misses_total", backendNodes)
	if hits+misses > 0 {
		v["engine.cache_hit_ratio"] = hits / (hits + misses)
	}
	v["engine.jobs_shed"] = d("pdfd_jobs_shed_total", backendNodes)
	v["engine.jobs_failed"] = d("pdfd_jobs_failed_total", backendNodes)
	v["store.hits"] = d("pdfd_store_hits_total", backendNodes)
	v["store.misses"] = d("pdfd_store_misses_total", backendNodes)
	v["store.puts"] = d("pdfd_store_puts_total", backendNodes)
	v["store.bytes"] = d("pdfd_store_bytes", backendNodes)
	v["justify.calls"] = d("pdfd_atpg_justify_calls_total", backendNodes)
	v["justify.probes"] = d("pdfd_atpg_justify_probes_total", backendNodes)
	v["justify.backtracks"] = d("pdfd_atpg_justify_backtracks_total", backendNodes)
	v["core.secondary_accepts"] = d("pdfd_atpg_secondary_total", backendNodes, `outcome="accept"`)
	v["core.secondary_rejects"] = d("pdfd_atpg_secondary_total", backendNodes, `outcome="reject"`)
	v["core.regenerations"] = d("pdfd_atpg_regenerations_per_test_sum", backendNodes)
	routed := d("pdfd_cluster_jobs_routed_total", coordNode)
	if routed > 0 {
		v["cluster.affinity_ratio"] = d("pdfd_cluster_jobs_routed_total", coordNode, `affinity="owner"`) / routed
	}
	v["cluster.spillovers"] = d("pdfd_cluster_spillovers_total", coordNode)
	v["cluster.replication_installs"] = d("pdfd_cluster_replication_installs_total", coordNode)
	v["cluster.replication_failures"] = d("pdfd_cluster_replication_failures_total", coordNode)
}

// addPrepare reads the prepare sub-stages from an engine job timeline:
// the fleet's backends run them, so their spans are the only record.
func (p *passRecord) addPrepare(tv *obs.TraceView) {
	if tv == nil {
		return
	}
	attr := func(s obs.SpanView, k string) float64 {
		n, _ := strconv.Atoi(s.Attrs[k])
		return float64(n)
	}
	for _, s := range tv.Spans {
		switch s.Name {
		case "pathenum":
			p.vals["pathenum.ms"] += s.DurMS
			p.vals["pathenum.faults"] += attr(s, "enumerated")
		case "screen":
			p.vals["robust.screen_ms"] += s.DurMS
			p.vals["robust.screen_kept"] += attr(s, "kept")
			p.vals["robust.screen_eliminated"] += attr(s, "eliminated")
		case "compaction":
			p.vals["core.compaction_ms"] += s.DurMS
		}
	}
}

// addClientSpans folds the clients' own spans (submit, wait, batch)
// into the pass, and fetches the coordinator's assembled trace of every
// fourth traced request for the route and forward spans.
func (r *runner) addClientSpans(f *fleet, p *passRecord, pass int, samples []sample) error {
	seen := map[*obs.Trace]bool{}
	n := 0
	for _, s := range samples {
		if s.trace == nil || seen[s.trace] {
			continue
		}
		seen[s.trace] = true
		label := fmt.Sprintf("pass%d/client/%s", pass, s.trace.ID())
		views := selfTimes(label, s.trace.Snapshot())
		for _, v := range views {
			switch v.Name {
			case "cluster.submit":
				p.vals["cluster.submit_ms"] += v.DurMS
			case "cluster.wait":
				p.vals["cluster.wait_ms"] += v.DurMS
			case "cluster.batch":
				p.vals["cluster.batch_ms"] += v.DurMS
			}
		}
		r.spans = append(r.spans, spanDump{Label: label, Spans: views})
		if n++; n%4 != 0 {
			continue
		}
		status, b, err := f.do(context.Background(), http.MethodGet, f.base+"/v1/traces/"+s.trace.ID(), nil)
		if err != nil || status != http.StatusOK {
			continue // evicted from the tail buffer: not an error
		}
		var at cluster.AssembledTrace
		if err := json.Unmarshal(b, &at); err != nil {
			return fmt.Errorf("assembled trace %s: %w", s.trace.ID(), err)
		}
		asm := spanDump{Label: fmt.Sprintf("pass%d/fleet/%s", pass, at.TraceID)}
		for _, sp := range at.Spans {
			switch sp.Name {
			case "route":
				p.vals["cluster.route_ms"] += sp.DurMS
			case "forward":
				p.vals["cluster.forward_ms"] += sp.DurMS
			}
			asm.Spans = append(asm.Spans, spanView{ID: sp.ID, Parent: sp.Parent, Name: sp.Node + "/" + sp.Name, StartMS: sp.StartMS, DurMS: sp.DurMS, SelfMS: sp.DurMS})
		}
		r.spans = append(r.spans, asm)
	}
	return nil
}
