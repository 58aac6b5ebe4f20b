package core

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/synth"
)

func TestStaticCompactPreservesCoverage(t *testing.T) {
	c := synth.MustGenerate(synth.BenchmarkProfiles["b03"])
	fcs := screened(t, c, 800)
	res := Generate(c, fcs, Config{Heuristic: Uncompacted, Seed: 21})
	before := detectedCount(t, c, res.Tests, fcs)
	compacted := StaticCompact(c, res.Tests, fcs)
	after := detectedCount(t, c, compacted, fcs)
	if after != before {
		t.Fatalf("coverage changed: %d -> %d", before, after)
	}
	if len(compacted) > len(res.Tests) {
		t.Fatal("compaction grew the test set")
	}
	t.Logf("uncompacted: %d tests -> static compaction: %d tests (coverage %d)",
		len(res.Tests), len(compacted), after)
	if len(compacted) == len(res.Tests) {
		t.Error("reverse-order pass should drop some uncompacted tests")
	}
}

func TestStaticCompactOnDynamicSet(t *testing.T) {
	// Dynamic compaction already packs tests; the static pass should
	// gain little (possibly nothing).
	c := bench.S27()
	fcs := screened(t, c, 0)
	res := Generate(c, fcs, Config{Heuristic: ValueBased, Seed: 22})
	compacted := StaticCompact(c, res.Tests, fcs)
	if got, want := detectedCount(t, c, compacted, fcs), res.DetectedCounts[0]; got != want {
		t.Fatalf("coverage changed: %d != %d", got, want)
	}
	if len(compacted) > len(res.Tests) {
		t.Fatal("compaction grew the test set")
	}
}

func TestStaticCompactEmpty(t *testing.T) {
	c := bench.S27()
	if out := StaticCompact(c, nil, nil); out != nil {
		t.Error("empty input must give empty output")
	}
}

func TestStaticCompactKeepsOrder(t *testing.T) {
	c := bench.S27()
	fcs := screened(t, c, 0)
	res := Generate(c, fcs, Config{Heuristic: Uncompacted, Seed: 23})
	compacted := StaticCompact(c, res.Tests, fcs)
	// Every kept test appears in the original order.
	j := 0
	for _, tp := range res.Tests {
		if j < len(compacted) && compacted[j].String() == tp.String() {
			j++
		}
	}
	if j != len(compacted) {
		t.Error("kept tests are not a subsequence of the original set")
	}
}
