package core

import (
	"math/rand"
	"testing"

	"pjoin/internal/op"
	"pjoin/internal/punct"
	"pjoin/internal/store"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// stateTuples lists side s's memory-resident and purge-buffered tuples
// in a fixed order (bucket by bucket, memory before purge buffer).
func stateTuples(j *PJoin, s int) []*store.StoredTuple {
	var out []*store.StoredTuple
	st := j.base.States[s]
	for i := 0; i < st.NumBuckets(); i++ {
		out = st.Bucket(i).AppendMem(out)
		out = append(out, st.Bucket(i).PurgeBuf...)
	}
	return out
}

// randomIndexPunct draws a constant or enumeration on the join
// attribute; a quarter of them also constrain the payload, so they
// match only part of a key group.
func randomIndexPunct(rng *rand.Rand) punct.Punctuation {
	var key punct.Pattern
	if rng.Intn(2) == 0 {
		key = punct.Const(value.Int(int64(rng.Intn(8))))
	} else {
		key = punct.MustEnum(value.Int(int64(rng.Intn(8))), value.Int(int64(rng.Intn(8))), value.Int(int64(rng.Intn(8))))
	}
	payload := punct.Star()
	if rng.Intn(4) == 0 {
		payload = punct.Const(value.Str("x"))
	}
	return punct.MustNew(key, payload)
}

// Differential check of index build: the key-group path (indexByKey)
// and the full scan (indexScan) over identical states and pending
// entries give every tuple the same pid and every entry the same count.
// The states mix already-indexed tuples, purge-buffered tuples and
// tuples matching two pending entries (which must go to the earlier).
func TestKeyedIndexBuildMatchesScan(t *testing.T) {
	var doubleMatches, purgeIndexed, narrower int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		type step struct {
			punct bool
			p     punct.Punctuation
			key   int64
			pay   string
			park  bool
			build bool // run index build here
		}
		var steps []step
		for i := 0; i < 60; i++ {
			switch r := rng.Intn(12); {
			case r == 0:
				steps = append(steps, step{build: true})
			case r < 4:
				steps = append(steps, step{punct: true, p: randomIndexPunct(rng)})
			default:
				pay := "x"
				if rng.Intn(2) == 0 {
					pay = "y"
				}
				steps = append(steps, step{key: int64(rng.Intn(8)), pay: pay, park: rng.Intn(5) == 0})
			}
		}
		build := func() *PJoin {
			j, err := New(defaultConfig(), &op.Collector{})
			if err != nil {
				t.Fatal(err)
			}
			for i, st := range steps {
				ts := stream.Time(i + 1)
				switch {
				case st.build:
					j.indexBuild(0)
				case st.punct:
					if err := j.Process(0, stream.PunctItem(st.p, ts), ts); err != nil {
						t.Fatal(err)
					}
				case st.park:
					tp := stream.MustTuple(schemaA, ts, value.Int(st.key), value.Str(st.pay))
					own := j.base.States[0]
					own.AddToPurgeBuffer(own.BucketOf(tp.Values[0]),
						&store.StoredTuple{T: tp, PID: punct.NoPID, DTS: store.InMemory}, ts)
				default:
					tp := stream.MustTuple(schemaA, ts, value.Int(st.key), value.Str(st.pay))
					if err := j.Process(0, stream.TupleItem(tp), ts); err != nil {
						t.Fatal(err)
					}
				}
			}
			return j
		}
		keyed, scanned := build(), build()

		pending := scanned.psets[0].Unindexed()
		for _, sd := range stateTuples(scanned, 0) {
			n := 0
			for _, e := range pending {
				if sd.PID == punct.NoPID && e.P.Matches(sd.T.Values) {
					n++
				}
			}
			if n > 1 {
				doubleMatches++
			}
		}
		keyBefore, scanBefore := keyed.base.M.IndexScanned, scanned.base.M.IndexScanned
		keyed.indexBuild(0)
		scanned.indexScan(0, pending)
		scanned.psets[0].MarkAllIndexed()

		kt, st := stateTuples(keyed, 0), stateTuples(scanned, 0)
		if len(kt) != len(st) {
			t.Fatalf("seed %d: %d vs %d state tuples", seed, len(kt), len(st))
		}
		for i := range kt {
			if kt[i].PID != st[i].PID {
				t.Errorf("seed %d: tuple %s pid %d keyed, %d scanned", seed, kt[i].T, kt[i].PID, st[i].PID)
			}
			if kt[i].DTS != store.InMemory && kt[i].PID != punct.NoPID {
				purgeIndexed++
			}
		}
		ke, se := keyed.psets[0].Entries(), scanned.psets[0].Entries()
		for i := range ke {
			if ke[i].PID != se[i].PID || ke[i].Count != se[i].Count || !ke[i].Indexed {
				t.Errorf("seed %d: entry %d count %d keyed, entry %d count %d scanned",
					seed, ke[i].PID, ke[i].Count, se[i].PID, se[i].Count)
			}
		}
		kd, sd := keyed.base.M.IndexScanned-keyBefore, scanned.base.M.IndexScanned-scanBefore
		if kd > sd {
			t.Errorf("seed %d: keyed build examined %d tuples, scan %d", seed, kd, sd)
		}
		if kd < sd {
			narrower++
		}
	}
	if doubleMatches == 0 || purgeIndexed == 0 || narrower == 0 {
		t.Errorf("coverage: %d tuples matching two pending entries, %d purge-buffered tuples indexed, %d narrower builds",
			doubleMatches, purgeIndexed, narrower)
	}
}

// A steady-state constant punctuation — verified, purged, index-built by
// key, propagated and removed — allocates the same whether 16 or 4096
// punctuations are open on its side: no per-punctuation allocation may
// grow with the set or the state.
func TestPunctAllocsIndependentOfOpenEntries(t *testing.T) {
	allocsAt := func(open int) float64 {
		cfg := defaultConfig()
		cfg.VerifyPunctuations = true
		cfg.Thresholds.PropagateCount = 1
		j, err := New(cfg, op.EmitterFunc(func(stream.Item) error { return nil }))
		if err != nil {
			t.Fatal(err)
		}
		ts := stream.Time(0)
		feed := func(it stream.Item) {
			ts++
			it.Ts = ts
			if err := j.Process(0, it, ts); err != nil {
				t.Fatal(err)
			}
		}
		// Each open punctuation covers one stored tuple, so its count
		// stays at one and it never propagates.
		for k := 0; k < open; k++ {
			feed(stream.TupleItem(stream.MustTuple(schemaA, 0, value.Int(int64(k)), value.Str("x"))))
		}
		for k := 0; k < open; k++ {
			feed(stream.PunctItem(punct.MustKeyOnly(2, 0, punct.Const(value.Int(int64(k)))), 0))
		}
		if a, _ := j.PunctSetSizes(); a != open {
			t.Fatalf("%d open punctuations, want %d", a, open)
		}
		// Steady state: each measured punctuation names a fresh key with
		// no stored tuple, so it propagates and leaves the set at once.
		key := int64(1 << 20)
		measure := func() {
			key++
			feed(stream.PunctItem(punct.MustKeyOnly(2, 0, punct.Const(value.Int(key))), 0))
		}
		for i := 0; i < 64; i++ {
			measure()
		}
		allocs := testing.AllocsPerRun(200, measure)
		if a, _ := j.PunctSetSizes(); a != open {
			t.Fatalf("%d open punctuations after the run, want %d", a, open)
		}
		return allocs
	}
	small, large := allocsAt(16), allocsAt(4096)
	t.Logf("allocs per punctuation: %.0f at 16 open, %.0f at 4096", small, large)
	if small != large {
		t.Errorf("a constant punctuation allocates %.0f objects with 16 open entries, %.0f with 4096", small, large)
	}
}
