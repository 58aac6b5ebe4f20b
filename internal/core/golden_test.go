package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/justify"
	"repro/internal/robust"
)

// resultDigest is the hex SHA-256 of everything a run decides: the
// tests in order, the per-set detection counts, the secondary-target
// outcomes, the primary aborts and the per-test regenerations. Effort
// counters (JustifyStats) and wall time are left out on purpose: a
// faster justification may do less work, but it must decide the same.
func resultDigest(res *core.Result) string {
	h := sha256.New()
	for _, tp := range res.Tests {
		fmt.Fprintln(h, tp.String())
	}
	fmt.Fprintln(h, "detected", res.DetectedCounts)
	fmt.Fprintln(h, "secondary", res.SecondaryAccepts, res.SecondaryRejects, res.CheapAccepts,
		res.SecondaryAcceptsBySet, res.SecondaryRejectsBySet)
	fmt.Fprintln(h, "aborts", res.PrimaryAborts)
	fmt.Fprintln(h, "regen", res.RegenPerTest)
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenDigests pins the exact output of the generation loop on a
// spread of circuits, heuristics, backends and ablations. The digests
// were computed before the incremental implication, probe pruning and
// cached nΔ work went in; any change to them means a run decides
// differently, which those optimisations must never do.
func TestGoldenDigests(t *testing.T) {
	prep := map[string]*experiments.CircuitData{}
	data := func(t *testing.T, name string) *experiments.CircuitData {
		t.Helper()
		if d, ok := prep[name]; ok {
			return d
		}
		d, err := experiments.Prepare(name, experiments.Params{NP: 300, NP0: 60, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		prep[name] = d
		return d
	}
	enrich := func(cfg core.Config) func(d *experiments.CircuitData) *core.Result {
		return func(d *experiments.CircuitData) *core.Result {
			return core.Enrich(d.Circuit, d.P0, d.P1, cfg)
		}
	}
	generate := func(cfg core.Config) func(d *experiments.CircuitData) *core.Result {
		return func(d *experiments.CircuitData) *core.Result {
			return core.Generate(d.Circuit, d.P0, cfg)
		}
	}
	enrich3 := func(cfg core.Config) func(d *experiments.CircuitData) *core.Result {
		return func(d *experiments.CircuitData) *core.Result {
			all := d.All()
			raw := make([]faults.Fault, len(all))
			for i := range all {
				raw[i] = all[i].Fault
			}
			parts := faults.PartitionK(raw, []int{len(raw) / 4, len(raw) / 2})
			sets := make([][]robust.FaultConditions, len(parts))
			off := 0
			for s := range parts {
				sets[s] = all[off : off+len(parts[s])]
				off += len(parts[s])
			}
			return core.EnrichK(d.Circuit, sets, cfg)
		}
	}
	cases := []struct {
		name, circuit string
		run           func(d *experiments.CircuitData) *core.Result
		want          string
	}{
		{"enrich-s641", "s641", enrich(core.Config{Seed: 11}),
			"b7aee4fe512bb56f28db2c3dbd8a996b1f88dbcc28b807a12332a385d489d5dd"},
		{"enrich-s953", "s953", enrich(core.Config{Seed: 12}),
			"4ec9cef023d82168e164ac7ea9480108e28f15a26ddbaebe307c96c6b6d10e88"},
		{"enrich-s1423", "s1423", enrich(core.Config{Seed: 13}),
			"d05fd03f055821e4cbdd20be4e8126ce120dd91d20b53ec32c60e8e33f5e9347"},
		{"generate-b04", "b04", generate(core.Config{Heuristic: core.ValueBased, Seed: 14}),
			"c4c8a3a62d36d8db41ce622f0df472f37e72e888bc3c0f3db0f61705e2f9c4a6"},
		{"enrichk3-s641", "s641", enrich3(core.Config{Seed: 15}),
			"c2e121c8a7aa2bba7159ace4f307081f22fb143221a6f636ce0c812d89605196"},
		{"enrich-bnb-s641", "s641", enrich(core.Config{Seed: 16, UseBnB: true}),
			"3d86ab6797911daf5f0176bf0e8e5b141ee0f3492979952074d39b75a44b8464"},
		{"generate-arbit-s953", "s953", generate(core.Config{Heuristic: core.Arbitrary, Seed: 17}),
			"ef808ec3f4dfad83a1fad367a464ca31ea60c7c45a30cefb5f2a27f26f46ad6e"},
		{"generate-length-s953", "s953", generate(core.Config{Heuristic: core.LengthBased, Seed: 18}),
			"863dcca0f1fd932255b881b82d646a5e79686fd8db5513e191911404dec80cdc"},
		{"enrich-noseed-s641", "s641", enrich(core.Config{Seed: 19,
			Justify: justify.Config{DisableImplicationSeed: true}}),
			"d760f3856beb17075e3092f64bb8c140b84e559bf3ebcb94b2a475acd48f57a5"},
		{"enrich-nodirty-s641", "s641", enrich(core.Config{Seed: 20,
			Justify: justify.Config{DisableDirtyTracking: true}}),
			"76a63db825f6e9eefa192214cb2e313ed158b61bdf0dbc7e61d2b7674d33c283"},
		{"enrich-bnb-noseed-s641", "s641", enrich(core.Config{Seed: 21, UseBnB: true,
			BnB: justify.BnBConfig{DisableImplicationSeed: true, MaxBacktracks: 2000}}),
			"badc72d08afcfa9cb71dba0a4d08a24c349483add3783283dd0e475250bdf40e"},
		{"enrich-nocheap-s953", "s953", enrich(core.Config{Seed: 22, DisableCheapAccept: true}),
			"988d27873eb27a496ef9e732f552080f8aa2fa79fc09bedf273a0d8750a1d6db"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := tc.run(data(t, tc.circuit))
			got := resultDigest(res)
			t.Logf("%d tests, detected %v, accepts %d, rejects %d, justify %+v",
				len(res.Tests), res.DetectedCounts, res.SecondaryAccepts, res.SecondaryRejects, res.JustifyStats)
			if got != tc.want {
				t.Errorf("digest %s, want %s", got, tc.want)
			}
		})
	}
}
