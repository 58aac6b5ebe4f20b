package faultsim

import (
	"context"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/bitsim"
	"repro/internal/circuit"
	"repro/internal/obs"
	"repro/internal/robust"
)

// faultChunk is the number of faults a worker claims at a time in the
// sharded scan; large enough to amortize the atomic fetch, small enough
// to balance uneven per-fault costs.
const faultChunk = 64

// RunParallel returns, for each fault, the index of the first test that
// detects it (-1 if none), sharded across workers. The tests are first
// simulated in 64-test word batches concurrently (bitsim.Simulate);
// then the fault list is split into chunks scanned concurrently over
// the batches in test order, each fault stopping at its first
// detecting batch. Workers write disjoint slots of the result, so the
// output is byte-identical to bitsim.Run regardless of scheduling.
// workers <= 0 uses GOMAXPROCS; workers == 1 delegates to bitsim.Run.
//
// RunParallel returns ctx.Err() if the context is canceled before the
// scan completes; cancellation is observed between batches and between
// fault chunks.
func RunParallel(ctx context.Context, c *circuit.Circuit, tests []circuit.TwoPattern, fcs []robust.FaultConditions, workers int) ([]int, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 || len(fcs) == 0 || len(tests) == 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return bitsim.Run(c, tests, fcs)
	}

	// Stage 1: simulate all batches concurrently. The pool is clamped
	// per stage — here by batch count, below by fault-chunk count — so
	// a workload with few tests but many faults still scans faults at
	// full parallelism.
	batches := make([]*bitsim.Batch, (len(tests)+bitsim.WordSize-1)/bitsim.WordSize)
	simWorkers := min(workers, len(batches))
	var nextBatch atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	_, simSpan := obs.StartSpan(ctx, "testsim",
		obs.Int("tests", len(tests)), obs.Int("workers", simWorkers))
	for w := 0; w < simWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				bi := int(nextBatch.Add(1)) - 1
				if bi >= len(batches) {
					return
				}
				base := bi * bitsim.WordSize
				b, err := bitsim.Simulate(c, tests[base:min(base+bitsim.WordSize, len(tests))])
				if err != nil {
					failed.Store(true)
					return
				}
				batches[bi] = b
			}
		}()
	}
	wg.Wait()
	simSpan.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if failed.Load() {
		// Report the malformed test exactly as the serial path does.
		return bitsim.Run(c, tests, fcs)
	}

	// Stage 2: scan fault chunks; each fault stops at its first
	// detecting batch. One "shard" span per worker goroutine records
	// the shard's share of the scan on the job timeline.
	scanWorkers := min(workers, (len(fcs)+faultChunk-1)/faultChunk)
	firstDet := make([]int, len(fcs))
	var nextFault atomic.Int64
	for w := 0; w < scanWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			scanned := 0
			_, span := obs.StartSpan(ctx, "shard", obs.Int("shard", w))
			defer func() { span.End(obs.Int("faults", scanned)) }()
			for ctx.Err() == nil {
				start := int(nextFault.Add(faultChunk)) - faultChunk
				if start >= len(fcs) {
					return
				}
				end := min(start+faultChunk, len(fcs))
				for fi := start; fi < end; fi++ {
					firstDet[fi] = -1
					for bi, b := range batches {
						if mask := b.Detects(&fcs[fi]); mask != 0 {
							firstDet[fi] = bi*bitsim.WordSize + bits.TrailingZeros64(mask)
							break
						}
					}
				}
				scanned += end - start
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return firstDet, nil
}

// CountParallel returns how many faults the test set detects, over the
// sharded path of RunParallel.
func CountParallel(ctx context.Context, c *circuit.Circuit, tests []circuit.TwoPattern, fcs []robust.FaultConditions, workers int) (int, error) {
	first, err := RunParallel(ctx, c, tests, fcs, workers)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, d := range first {
		if d >= 0 {
			n++
		}
	}
	return n, nil
}
