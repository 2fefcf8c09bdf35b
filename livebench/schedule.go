package main

import (
	"fmt"
	"math"

	"pjoin/internal/gen"
	"pjoin/internal/punct"
	"pjoin/internal/stream"
)

// leadNs is the gap between a run's time origin and its first due item,
// so the sources and operator goroutines are scheduled before the
// first offer.
const leadNs = 2e6

// schedule is one workload's inputs, generated from the seed in stream
// time. Every run offers a prefix of it, compressed to the run's rate.
type schedule struct {
	w    *Workload
	arrs []gen.Arrival
	// virtRate is the steady-state input rate in tuples per second of
	// stream time; compressing by virtRate/rate offers rate tuples/s.
	virtRate float64
}

// genSchedule generates at least tuples input tuples for w from seed.
func genSchedule(w *Workload, seed uint64, tuples int) (*schedule, error) {
	s := &schedule{w: w}
	switch w.Plan {
	case "join":
		side := gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: w.PunctMean}
		arrs, err := gen.Synthetic(gen.Config{
			Seed: seed, MaxTuples: tuples, WindowKeys: w.WindowKeys, A: side, B: side,
		})
		if err != nil {
			return nil, err
		}
		s.arrs = arrs
		s.virtRate = 2 * 1e9 / float64(side.TupleMean)
	case "auction":
		bidsPerItem := w.AuctionMs / w.BidEveryMs
		s.virtRate = 1e3 / w.OpenEveryMs * (1 + bidsPerItem)
		// Items for the requested tuples plus one auction length of
		// ramp-up, during which fewer auctions are open.
		items := int(float64(tuples)/(1+bidsPerItem)+w.AuctionMs/w.OpenEveryMs) + 1
		for {
			arrs, err := gen.Auction(gen.AuctionConfig{
				Seed:            seed,
				Items:           items,
				OpenMean:        stream.Time(w.OpenEveryMs * float64(stream.Millisecond)),
				AuctionLength:   stream.Time(w.AuctionMs * float64(stream.Millisecond)),
				BidMean:         stream.Time(w.BidEveryMs * float64(stream.Millisecond)),
				UniqueOpenPunct: true,
			})
			if err != nil {
				return nil, err
			}
			if countTuples(arrs) >= tuples {
				s.arrs = arrs
				break
			}
			items *= 2
		}
	}
	if countTuples(s.arrs) < tuples {
		return nil, fmt.Errorf("schedule: generated %d tuples, need %d", countTuples(s.arrs), tuples)
	}
	return s, nil
}

func countTuples(arrs []gen.Arrival) int {
	n := 0
	for _, a := range arrs {
		if a.Item.Kind == stream.KindTuple {
			n++
		}
	}
	return n
}

// input is what one run offers: a schedule prefix holding a given
// number of tuples, split by port, with each item's due time for the
// run's offered rate, and the maps the sink needs to trace a result or
// an output punctuation back to the inputs it came from.
//
// Tuples are held in their binary encoding and decoded by the source at
// offer time, as a source reading a wire format would: a schedule of
// live tuple objects would sit in the heap the pipeline's GC marks and
// stretch the latencies being measured.
type input struct {
	rate   float64
	tuples int
	offers [2][]offer
	wire   [2][]byte        // encoded tuples
	puncts [2][]stream.Item // punctuations, referenced by offer.off

	// seqDue[side][seq] is the due time of a side's seq-th tuple (plan
	// "join": the payload "A<seq>"/"B<seq>" names it); punctDue[side][k]
	// is the due time of the punctuation closing key k on a side, -1 when
	// the prefix holds none.
	seqDue   [2][]int64
	punctDue [2][]int64
}

// offer is one input item: a tuple encoded at wire[off:], or for off < 0
// the punctuation puncts[-off-1]; due is in ns after the run's origin.
type offer struct {
	due int64
	off int
}

// item materialises the offer as the stream item it stands for.
func (in *input) item(port int, o offer) stream.Item {
	if o.off < 0 {
		return in.puncts[port][-o.off-1]
	}
	t, _, err := stream.DecodeTuple(in.wire[port][o.off:])
	if err != nil {
		panic(fmt.Sprintf("livebench: decoding a tuple this process encoded: %v", err))
	}
	return stream.TupleItem(t)
}

// prefix times the first tuples tuples of the schedule (and the
// punctuations among them) for the offered rate.
func (s *schedule) prefix(rate float64, tuples int) (*input, error) {
	if tuples > countTuples(s.arrs) {
		return nil, fmt.Errorf("schedule: prefix of %d tuples exceeds the schedule", tuples)
	}
	in := &input{rate: rate, tuples: tuples}
	scale := s.virtRate / rate
	base := s.arrs[0].Item.Ts
	maxKey := int64(-1)
	n := 0
	var arrs []gen.Arrival
	for i, a := range s.arrs {
		if a.Item.Kind == stream.KindTuple {
			if n == tuples {
				break
			}
			n++
		}
		arrs = s.arrs[:i+1]
		if k := keyOf(a.Item); k > maxKey {
			maxKey = k
		}
	}
	for p := 0; p < 2; p++ {
		in.punctDue[p] = filled(int(maxKey)+1, -1)
	}
	for _, a := range arrs {
		d := int64(leadNs + math.Round(float64(a.Item.Ts-base)*scale))
		p := a.Port
		switch a.Item.Kind {
		case stream.KindTuple:
			in.offers[p] = append(in.offers[p], offer{due: d, off: len(in.wire[p])})
			in.wire[p] = a.Item.Tuple.AppendBinary(in.wire[p])
			in.seqDue[p] = append(in.seqDue[p], d)
		case stream.KindPunct:
			in.puncts[p] = append(in.puncts[p], a.Item)
			in.offers[p] = append(in.offers[p], offer{due: d, off: -len(in.puncts[p])})
			k := keyOf(a.Item)
			if k < 0 {
				return nil, fmt.Errorf("schedule: punctuation %s is not a constant on the key", a.Item.Punct)
			}
			in.punctDue[p][k] = d
		}
	}
	return in, nil
}

// keyOf returns the join key an input item carries (its constant key
// pattern for a punctuation), or -1. Both plans join on attribute 0.
func keyOf(it stream.Item) int64 {
	switch it.Kind {
	case stream.KindTuple:
		return it.Tuple.Values[0].IntVal()
	case stream.KindPunct:
		if pat := it.Punct.PatternAt(0); pat.Kind() == punct.Constant {
			return pat.ConstVal().IntVal()
		}
	}
	return -1
}

func filled(n int, v int64) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// releaseDue is the due time of the input punctuation that released an
// output punctuation (or, for the auction plan, a group) on key k of
// side, received at recv. PJoin propagates a side's punctuation once the
// other side's punctuation has purged the matching state, so when the
// other side's closing punctuation on k was due before recv the later of
// the two is the release; the wait between them is the input's doing,
// not the system's. Keys the prefix does not close on both sides are
// released by the end of the stream and have no release time (-1).
func (in *input) releaseDue(side int, k int64, recv int64) int64 {
	d, o := in.punctDue[side][k], in.punctDue[1-side][k]
	if d < 0 || o < 0 {
		return -1
	}
	if o <= recv {
		d = max(d, o)
	}
	return d
}
