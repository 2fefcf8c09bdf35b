package main

import (
	"fmt"
	"time"

	"pjoin/internal/op"
	"pjoin/internal/punct"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// sink is the benchmark's counting sink: a one-port operator spawned on
// the plan's last edge. It keeps a count and an order-independent
// checksum of the results instead of the results themselves, maps each
// result and output punctuation back to the due time of the inputs it
// came from, and checks that no result follows an output punctuation
// that matches it.
type sink struct {
	plan   string
	in     *input
	widthA int // output schema offset of side B (plan "join")
	t0     time.Time
	every  uint64
	schema *stream.Schema
	rec    *recorder // nil when untraced

	results, puncts int64
	sum             uint64
	lat, pdel       []int64 // ns
	// closed[side][key]: an output punctuation closed key on that side
	// (plan "auction" uses side 0 for the group key).
	closed [2][]bool
	agg    map[int64]float64 // plan "auction": each group's aggregate

	violations int64
	firstBad   string
	eosAt      int64 // ns after t0; 0 until EOS
	finished   bool
}

var (
	_ op.Operator       = (*sink)(nil)
	_ op.BatchProcessor = (*sink)(nil)
)

func newSink(w *Workload, in *input, schema *stream.Schema, widthA int) *sink {
	s := &sink{
		plan: w.Plan, in: in, widthA: widthA, every: w.ResultSampleEvery,
		schema: schema,
		lat:    make([]int64, 0, in.tuples/int(w.ResultSampleEvery)+16),
	}
	keys := len(in.punctDue[0])
	s.closed[0] = make([]bool, keys)
	s.closed[1] = make([]bool, keys)
	if w.Plan == "auction" {
		s.agg = make(map[int64]float64, keys)
	}
	return s
}

func (s *sink) Name() string              { return "sink" }
func (s *sink) NumPorts() int             { return 1 }
func (s *sink) OutSchema() *stream.Schema { return s.schema }
func (s *sink) OnIdle(stream.Time) (bool, error) {
	return false, nil
}

func (s *sink) Process(port int, it stream.Item, now stream.Time) error {
	one := [1]stream.Item{it}
	return s.ProcessBatch(port, one[:], now)
}

// ProcessBatch takes one receive time for the whole batch: its items
// reached the sink together.
func (s *sink) ProcessBatch(port int, items []stream.Item, now stream.Time) error {
	var start int64
	if s.rec != nil {
		start = s.rec.begin(spanSink)
	}
	recv := int64(time.Since(s.t0))
	for _, it := range items {
		switch it.Kind {
		case stream.KindTuple:
			s.result(it.Tuple.Values, recv)
		case stream.KindPunct:
			s.punct(it.Punct, recv)
		case stream.KindEOS:
			s.eosAt = recv
		}
	}
	if s.rec != nil {
		s.rec.end(start)
	}
	return nil
}

func (s *sink) Finish(stream.Time) error {
	if s.finished {
		return fmt.Errorf("sink: double Finish")
	}
	s.finished = true
	return nil
}

func (s *sink) bad(format string, args ...any) {
	if s.violations == 0 {
		s.firstBad = fmt.Sprintf(format, args...)
	}
	s.violations++
}

// result counts one result row and, for sampled rows, records the time
// from the due time of its last contributing input.
func (s *sink) result(vals []value.Value, recv int64) {
	h := tupleHash(vals)
	s.results++
	s.sum += h
	if len(vals) == 0 || vals[0].Kind() != value.KindInt {
		s.bad("result %v has no integer key", vals)
		return
	}
	k := vals[0].IntVal()
	if k < 0 || k >= int64(len(s.closed[0])) {
		s.bad("result %v: key %d was never offered", vals, k)
		return
	}
	if s.closed[0][k] || s.closed[1][k] {
		s.bad("result %v arrived after an output punctuation on key %d", vals, k)
	}
	if s.plan == "auction" {
		if len(vals) != 2 || vals[1].Kind() != value.KindFloat {
			s.bad("group row %v is not (item, sum)", vals)
			return
		}
		if _, dup := s.agg[k]; dup {
			s.bad("group %d emitted twice", k)
		}
		s.agg[k] = vals[1].FloatVal()
		// A group's last input is the punctuation releasing it; groups
		// flushed at end of stream have none and no latency.
		if d := s.in.releaseDue(0, k, recv); d >= 0 {
			s.lat = append(s.lat, recv-d)
		}
		return
	}
	if len(vals) != 2*s.widthA || vals[s.widthA] != vals[0] {
		s.bad("result %v is not a %d+%d-wide equi-join row", vals, s.widthA, s.widthA)
		return
	}
	if h%s.every != 0 {
		return
	}
	sa, okA := payloadSeq(vals[1], len(s.in.seqDue[0]))
	sb, okB := payloadSeq(vals[s.widthA+1], len(s.in.seqDue[1]))
	if !okA || !okB {
		s.bad("result %v names inputs that were never offered", vals)
		return
	}
	s.lat = append(s.lat, recv-max(s.in.seqDue[0][sa], s.in.seqDue[1][sb]))
}

// punct records an output punctuation: the half of the output schema
// holding a constant names the input side and key it was derived from.
func (s *sink) punct(p punct.Punctuation, recv int64) {
	s.puncts++
	side, k := -1, int64(-1)
	for sd, attr := range [2]int{0, s.widthA} {
		if attr < p.Width() && p.PatternAt(attr).Kind() == punct.Constant {
			if v := p.PatternAt(attr).ConstVal(); v.Kind() == value.KindInt {
				side, k = sd, v.IntVal()
			}
			break
		}
	}
	if side < 0 || k < 0 || k >= int64(len(s.closed[0])) {
		s.bad("output punctuation %s names no offered key", p)
		return
	}
	s.closed[side][k] = true
	if d := s.in.releaseDue(side, k, recv); d >= 0 {
		s.pdel = append(s.pdel, recv-d)
	}
}

// payloadSeq parses the sequence number of a gen.Synthetic payload
// ("A<seq>" or "B<seq>") and checks it is below n.
func payloadSeq(v value.Value, n int) (int, bool) {
	if v.Kind() != value.KindString {
		return 0, false
	}
	str := v.StrVal()
	if len(str) < 2 {
		return 0, false
	}
	seq := 0
	for i := 1; i < len(str); i++ {
		c := str[i] - '0'
		if c > 9 || seq > n {
			return 0, false
		}
		seq = seq*10 + int(c)
	}
	return seq, seq < n
}

// tupleHash is one row's term of the order-independent result checksum
// (the checksum is the wrapping sum of the terms).
func tupleHash(vals []value.Value) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range vals {
		h = mix64(h ^ v.Hash())
	}
	return h
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
