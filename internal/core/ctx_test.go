package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/synth"
)

func TestGenerateCtxBackgroundMatchesGenerate(t *testing.T) {
	c := bench.S27()
	fcs := screened(t, c, 0)
	cfg := Config{Heuristic: ValueBased, Seed: 1}
	plain := Generate(c, fcs, cfg)
	withCtx, err := GenerateCtx(context.Background(), c, fcs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Tests) != len(withCtx.Tests) || plain.DetectedCounts[0] != withCtx.DetectedCounts[0] {
		t.Errorf("ctx variant diverges: %d/%d tests, %d/%d detected",
			len(plain.Tests), len(withCtx.Tests), plain.DetectedCounts[0], withCtx.DetectedCounts[0])
	}
	for i := range plain.Tests {
		if plain.Tests[i].String() != withCtx.Tests[i].String() {
			t.Fatalf("test %d differs", i)
		}
	}
}

func TestGenerateCtxCanceledBeforeStart(t *testing.T) {
	c := bench.S27()
	fcs := screened(t, c, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := GenerateCtx(ctx, c, fcs, Config{Seed: 1})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Tests) != 0 {
		t.Errorf("pre-canceled run produced %d tests", len(res.Tests))
	}
}

func TestEnrichCtxCanceledMidRun(t *testing.T) {
	c, err := synth.Benchmark("s1423")
	if err != nil {
		t.Fatal(err)
	}
	fcs := screened(t, c, 2000)
	mid := len(fcs) / 2
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := EnrichCtx(ctx, c, fcs[:mid], fcs[mid:], Config{Seed: 1})
	took := time.Since(start)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("canceled run must still return the partial result")
	}
	// Promptness: the full run takes seconds; a cancel at 50ms must
	// return well before that.
	if took > 2*time.Second {
		t.Errorf("canceled run took %v", took)
	}
}
