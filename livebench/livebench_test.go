package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"pjoin/internal/op"
	"pjoin/internal/punct"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

func testWorkload(t *testing.T, name string) *Workload {
	t.Helper()
	ws, err := loadWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	w, ok := ws[name]
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return w
}

// encodeInput renders everything a run offers, due times included.
func encodeInput(in *input) []byte {
	var b bytes.Buffer
	for p := 0; p < 2; p++ {
		fmt.Fprintf(&b, "port %d offers %v\n", p, in.offers[p])
		b.Write(in.wire[p])
		for _, it := range in.puncts[p] {
			fmt.Fprintf(&b, "\n%s", it.Punct)
		}
	}
	return b.Bytes()
}

func TestSeedReproducesSchedule(t *testing.T) {
	for _, name := range []string{"fanout", "auction", "spill"} {
		w := testWorkload(t, name)
		gen := func(seed uint64) []byte {
			s, err := genSchedule(w, seed, 3000)
			if err != nil {
				t.Fatal(err)
			}
			in, err := s.prefix(w.NominalTPS, 3000)
			if err != nil {
				t.Fatal(err)
			}
			return encodeInput(in)
		}
		a, b, c := gen(7), gen(7), gen(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different schedules", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", name)
		}
	}
}

// runSmall runs n tuples of w through the real pipeline, letting plant
// rewrite the items the plan's last operator emits to the sink.
func runSmall(t *testing.T, w *Workload, n int, plant func(stream.Item) stream.Item) (*result, expected) {
	t.Helper()
	s, err := genSchedule(w, 3, n)
	if err != nil {
		t.Fatal(err)
	}
	want, err := reference(s, n)
	if err != nil {
		t.Fatal(err)
	}
	in, err := s.prefix(w.NominalTPS, n)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := build(w, in, true)
	if err != nil {
		t.Fatal(err)
	}
	last := pl.joinEmit
	if pl.gbEmit != nil {
		last = pl.gbEmit
	}
	edge := last.inner
	last.inner = op.EmitterFunc(func(it stream.Item) error { return edge.Emit(plant(it)) })
	res := pl.run(deadline(10))
	if res.err != nil {
		t.Fatal(res.err)
	}
	return res, want
}

func TestOutputCheckCatchesPlantedResult(t *testing.T) {
	for _, name := range []string{"fanout", "auction"} {
		w := testWorkload(t, name)
		keep := func(it stream.Item) stream.Item { return it }
		res, want := runSmall(t, w, 4000, keep)
		if err := verify(res.pl.sink, want); err != nil {
			t.Fatalf("%s: untouched run fails the check: %v", name, err)
		}

		// Change one value of the 10th result row on its way to the sink.
		rows := 0
		plant := func(it stream.Item) stream.Item {
			if it.Kind != stream.KindTuple {
				return it
			}
			if rows++; rows != 10 {
				return it
			}
			vals := append([]value.Value(nil), it.Tuple.Values...)
			last := len(vals) - 1
			if vals[last].Kind() == value.KindFloat {
				vals[last] = value.Float(vals[last].FloatVal() + 1)
			} else {
				vals[last] = value.Str(vals[last].StrVal() + "x")
			}
			return stream.TupleItem(&stream.Tuple{Values: vals, Ts: it.Tuple.Ts})
		}
		res, want = runSmall(t, w, 4000, plant)
		if rows < 10 {
			t.Fatalf("%s: only %d result rows", name, rows)
		}
		if err := verify(res.pl.sink, want); err == nil {
			t.Errorf("%s: the check passed a planted wrong result", name)
		}
	}
}

func TestSinkFlagsResultAfterPunctuation(t *testing.T) {
	w := testWorkload(t, "fanout")
	s, err := genSchedule(w, 3, 2000)
	if err != nil {
		t.Fatal(err)
	}
	in, err := s.prefix(w.NominalTPS, 2000)
	if err != nil {
		t.Fatal(err)
	}
	sk := newSink(w, in, nil, 2)
	row := []value.Value{value.Int(3), value.Str("A0"), value.Int(3), value.Str("B0")}
	sk.result(row, 1)
	if sk.violations != 0 {
		t.Fatalf("a result before any punctuation was flagged: %s", sk.firstBad)
	}
	p := punct.MustKeyOnly(4, 2, punct.Const(value.Int(3)))
	sk.punct(p, 2)
	sk.result(row, 3)
	if sk.violations != 1 || !strings.Contains(sk.firstBad, "after an output punctuation") {
		t.Errorf("a result after a matching output punctuation gave %d violations (%q)", sk.violations, sk.firstBad)
	}
}

// BENCHMARK.json repeats each gated workload's why from workloads.json,
// which is the copy the benchmark reads.
func TestBenchmarkWhyMatchesWorkloads(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name, Why string }
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, bw := range bench.Workloads {
		if w := testWorkload(t, bw.Name); bw.Why != w.Why {
			t.Errorf("%s: BENCHMARK.json why %q, workloads.json why %q", bw.Name, bw.Why, w.Why)
		}
	}
}
