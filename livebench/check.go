package main

import (
	"fmt"

	"pjoin/internal/gen"
	"pjoin/internal/op"
	"pjoin/internal/shj"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// expected is the reference output of a schedule prefix: the result
// count and checksum of the plan's last operator.
type expected struct {
	results int64
	sum     uint64
	// bids is each auction item's bid total computed straight from the
	// inputs, for the items with at least one bid.
	bids map[int64]float64
}

// reference validates the schedule and runs the brute-force symmetric
// hash join over its first n tuples. For the auction plan the join
// results are grouped by item and summed, as the plan's group-by does.
func reference(s *schedule, n int) (expected, error) {
	var e expected
	if err := gen.Validate(s.arrs); err != nil {
		return e, err
	}
	schA, schB := gen.SchemaA, gen.SchemaB
	if s.w.Plan == "auction" {
		schA, schB = gen.OpenSchema, gen.BidSchema
	}
	groups := map[int64]float64{}
	bidAttr := schA.Width() + gen.BidSchema.MustIndexOf("bid_increase")
	j, err := shj.New(schA, schB, 0, 0, op.EmitterFunc(func(it stream.Item) error {
		if it.Kind != stream.KindTuple {
			return nil
		}
		if s.w.Plan == "auction" {
			v := it.Tuple.Values
			groups[v[0].IntVal()] += v[bidAttr].FloatVal()
			return nil
		}
		e.results++
		e.sum += tupleHash(it.Tuple.Values)
		return nil
	}))
	if err != nil {
		return e, err
	}
	e.bids = map[int64]float64{}
	tuples := 0
	for _, a := range s.arrs {
		if a.Item.Kind == stream.KindTuple {
			if tuples == n {
				break
			}
			tuples++
			if s.w.Plan == "auction" && a.Port == gen.AuctionPortBid {
				v := a.Item.Tuple.Values
				e.bids[v[0].IntVal()] += v[bidAttr-schA.Width()].FloatVal()
			}
		}
		if err := j.Process(a.Port, a.Item, a.Item.Ts); err != nil {
			return e, err
		}
	}
	for item, sum := range groups {
		e.results++
		e.sum += tupleHash([]value.Value{value.Int(item), value.Float(sum)})
	}
	return e, nil
}

// verify checks a finished run's sink against the reference: result
// count and checksum, no result after a matching output punctuation,
// and (auction) every item's aggregate against the inputs.
func verify(s *sink, want expected) error {
	if s.violations > 0 {
		return fmt.Errorf("%d sink violations, first: %s", s.violations, s.firstBad)
	}
	if s.eosAt == 0 {
		return fmt.Errorf("sink saw no end of stream")
	}
	if s.results != want.results || s.sum != want.sum {
		return fmt.Errorf("results %d checksum %016x, reference join gives %d checksum %016x",
			s.results, s.sum, want.results, want.sum)
	}
	if s.plan != "auction" {
		return nil
	}
	sums := want.bids
	if len(sums) != len(s.agg) {
		return fmt.Errorf("%d groups emitted, inputs have %d items with bids", len(s.agg), len(sums))
	}
	for item, want := range sums {
		if got, ok := s.agg[item]; !ok || got != want {
			return fmt.Errorf("item %d: group sum %v, inputs sum to %v", item, got, want)
		}
	}
	return nil
}
