package core

import (
	"fmt"
	"testing"

	"pjoin/internal/gen"
	"pjoin/internal/op"
	"pjoin/internal/stream"
)

// Equivalence regression for the key-grouped state index: an indexed
// PJoin and one forced onto the pre-index scan fallback
// (DisableStateIndex) must emit identical result multisets and agree on
// every work counter except the three the index is allowed to shrink
// (Examined, PurgeScanned, IndexScanned). The two joins are driven through identical
// Process/OnIdle/Finish sequences — no simulator, so the comparison is
// about operator semantics, not cost feedback.

// equivCase is one configuration regime of the comparison matrix.
type equivCase struct {
	name    string
	batched bool // range punctuations (exercises the purge scan path)
	mutate  func(*Config)
}

func equivCases() []equivCase {
	return []equivCase{
		{name: "eager-const-puncts", mutate: func(c *Config) {
			c.Thresholds.Purge = 1
		}},
		{name: "lazy-range-puncts", batched: true, mutate: func(c *Config) {
			c.Thresholds.Purge = 20
		}},
		{name: "relocation", mutate: func(c *Config) {
			c.Thresholds.Purge = 4
			c.Thresholds.MemoryBytes = 8 << 10
			c.Thresholds.DiskJoinIdle = 4 * stream.Millisecond
		}},
		{name: "no-drop-on-the-fly", mutate: func(c *Config) {
			c.Thresholds.Purge = 1
			c.DisableDropOnTheFly = true
		}},
		{name: "compact-sets", batched: true, mutate: func(c *Config) {
			c.Thresholds.Purge = 8
			c.CompactSets = true
		}},
		{name: "window", mutate: func(c *Config) {
			c.Thresholds.Purge = 2
			c.Window = 200 * stream.Millisecond
		}},
	}
}

// driveEquiv runs one PJoin over the schedule with a deterministic
// OnIdle cadence.
func driveEquiv(t *testing.T, j *PJoin, arrs []gen.Arrival) {
	t.Helper()
	var last stream.Time
	for i, a := range arrs {
		// Idle pulses at a fixed cadence so the reactive disk join runs
		// identically for both joins.
		if i%64 == 63 && a.Item.Ts > last+1 {
			if _, err := j.OnIdle(a.Item.Ts - 1); err != nil {
				t.Fatalf("OnIdle before arrival %d: %v", i, err)
			}
		}
		if err := j.Process(a.Port, a.Item, a.Item.Ts); err != nil {
			t.Fatalf("arrival %d: %v", i, err)
		}
		last = a.Item.Ts
	}
	for port := 0; port < 2; port++ {
		last++
		if err := j.Process(port, stream.EOSItem(last), last); err != nil {
			t.Fatalf("EOS port %d: %v", port, err)
		}
	}
	if err := j.Finish(last + 1); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestIndexedScanEquivalence(t *testing.T) {
	for _, ec := range equivCases() {
		ec := ec
		t.Run(ec.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				gcfg := gen.Config{
					Seed:     seed,
					Duration: 1500 * stream.Millisecond,
					A:        gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: 15},
					B:        gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: 25, Batched: ec.batched},
				}
				arrs, err := gen.Synthetic(gcfg)
				if err != nil {
					t.Fatal(err)
				}

				build := func(disableIndex bool) (*PJoin, *op.Collector) {
					sink := &op.Collector{}
					cfg := Config{
						SchemaA: gen.SchemaA, SchemaB: gen.SchemaB,
						AttrA: gen.KeyAttr, AttrB: gen.KeyAttr,
					}
					ec.mutate(&cfg)
					cfg.DisableStateIndex = disableIndex
					j, err := New(cfg, sink)
					if err != nil {
						t.Fatal(err)
					}
					return j, sink
				}
				indexed, outIdx := build(false)
				scan, outScan := build(true)
				driveEquiv(t, indexed, arrs)
				driveEquiv(t, scan, arrs)

				diffMultisets(t, multiset(outIdx.Tuples()), multiset(outScan.Tuples()))
				if gi, gs := len(outIdx.Puncts()), len(outScan.Puncts()); gi != gs {
					t.Errorf("seed %d: propagated %d puncts indexed vs %d scan", seed, gi, gs)
				}
				mi, ms := indexed.Metrics(), scan.Metrics()
				// The index may only reduce work examined; everything
				// observable must be bit-identical.
				if mi.Examined > ms.Examined {
					t.Errorf("seed %d: indexed Examined %d > scan %d", seed, mi.Examined, ms.Examined)
				}
				if mi.PurgeScanned > ms.PurgeScanned {
					t.Errorf("seed %d: indexed PurgeScanned %d > scan %d", seed, mi.PurgeScanned, ms.PurgeScanned)
				}
				if mi.IndexScanned > ms.IndexScanned {
					t.Errorf("seed %d: indexed IndexScanned %d > scan %d", seed, mi.IndexScanned, ms.IndexScanned)
				}
				mi.Examined, mi.PurgeScanned, mi.IndexScanned = 0, 0, 0
				ms.Examined, ms.PurgeScanned, ms.IndexScanned = 0, 0, 0
				if gi, gs := fmt.Sprintf("%+v", mi), fmt.Sprintf("%+v", ms); gi != gs {
					t.Errorf("seed %d: metrics diverge\nindexed: %s\nscan:    %s", seed, gi, gs)
				}
				if t.Failed() {
					return
				}
			}
		})
	}
}
