package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pjoin/internal/op"
	"pjoin/internal/store"
	"pjoin/internal/stream"
)

// Span names. Operator calls are parents; the output Edge.Emit calls
// and SpillStore calls an operator makes during a call are its
// children, aggregated per parent and name.
const (
	spanCoreTuple uint8 = iota // PJoin call whose (last) item is a tuple
	spanCorePunct              // PJoin call whose (last) item is a punctuation
	spanCoreOther              // PJoin EOS delivery, OnIdle or Finish
	spanOp                     // group-by call
	spanSink                   // counting-sink call
	spanEmit                   // child: the operator's output Edge.Emit
	spanStore                  // child: a SpillStore or ScanCursor call
)

var spanNames = [...]string{"core.tuple", "core.punct", "core.other", "op.groupby", "sink", "emit", "store"}

type spanRec struct {
	start, dur int64 // ns after the run's time origin
	parent     int32 // index in the same recorder, -1 for none
	n          int32 // calls aggregated into the span
	name       uint8
}

// recorder keeps the spans of one operator goroutine in memory; only
// that goroutine touches it while the pipeline runs.
type recorder struct {
	t0    time.Time
	spans []spanRec
	cur   int32 // the open parent span, -1 for none
}

func newRecorder() *recorder { return &recorder{cur: -1} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *recorder) begin(name uint8) int64 {
	t := r.now()
	r.spans = append(r.spans, spanRec{start: t, parent: -1, n: 1, name: name})
	r.cur = int32(len(r.spans) - 1)
	return t
}

func (r *recorder) end(start int64) {
	r.spans[r.cur].dur = r.now() - start
	r.cur = -1
}

// child adds one child call to the open parent's aggregate span of that
// name, creating it on the first such call.
func (r *recorder) child(name uint8, start, dur int64) {
	if r.cur >= 0 {
		for i := len(r.spans) - 1; i > int(r.cur); i-- {
			if r.spans[i].name == name {
				r.spans[i].dur += dur
				r.spans[i].n++
				return
			}
		}
	}
	r.spans = append(r.spans, spanRec{start: start, dur: dur, parent: r.cur, n: 1, name: name})
}

// opWrap forwards the executor's calls into an operator and times each
// one as a parent span. Wrapping the PJoin, it also records each input
// tuple's queue wait (source Emit to receipt here) and the state size
// after each call.
type opWrap struct {
	inner op.Operator
	rec   *recorder
	core  bool
	state func() int // nil unless core

	// emitAt[port][i] is when the source offered its i-th item on port;
	// edges keep per-port order, so the i-th item received on a port is
	// that item. nil unless core.
	emitAt *[2][]int64
	seen   [2]int
	qwait  []int64

	items, calls int64
	statePeak    int
}

var (
	_ op.Operator       = (*opWrap)(nil)
	_ op.BatchProcessor = (*opWrap)(nil)
)

func (w *opWrap) Name() string              { return w.inner.Name() }
func (w *opWrap) NumPorts() int             { return w.inner.NumPorts() }
func (w *opWrap) OutSchema() *stream.Schema { return w.inner.OutSchema() }

func (w *opWrap) ProcessBatch(port int, items []stream.Item, now stream.Time) error {
	start := w.begin(port, items)
	err := op.ProcessAll(w.inner, port, items)
	w.end(start)
	return err
}

func (w *opWrap) Process(port int, it stream.Item, now stream.Time) error {
	one := [1]stream.Item{it}
	start := w.begin(port, one[:])
	err := w.inner.Process(port, it, now)
	w.end(start)
	return err
}

func (w *opWrap) OnIdle(now stream.Time) (bool, error) {
	start := w.rec.begin(w.otherName())
	did, err := w.inner.OnIdle(now)
	w.end(start)
	return did, err
}

func (w *opWrap) Finish(now stream.Time) error {
	start := w.rec.begin(w.otherName())
	err := w.inner.Finish(now)
	w.end(start)
	return err
}

func (w *opWrap) otherName() uint8 {
	if w.core {
		return spanCoreOther
	}
	return spanOp
}

func (w *opWrap) begin(port int, items []stream.Item) int64 {
	name := spanOp
	if w.core {
		switch items[len(items)-1].Kind {
		case stream.KindTuple:
			name = spanCoreTuple
		case stream.KindPunct:
			name = spanCorePunct
		default:
			name = spanCoreOther
		}
	}
	start := w.rec.begin(name)
	w.items += int64(len(items))
	w.calls++
	if w.emitAt != nil {
		at := w.emitAt[port]
		for _, it := range items {
			i := w.seen[port]
			w.seen[port]++
			if it.Kind == stream.KindTuple && i < len(at) {
				w.qwait = append(w.qwait, start-at[i])
			}
		}
	}
	return start
}

func (w *opWrap) end(start int64) {
	w.rec.end(start)
	if w.state != nil {
		w.statePeak = max(w.statePeak, w.state())
	}
}

// emitWrap times an operator's calls into its output edge.
type emitWrap struct {
	inner  op.Emitter
	rec    *recorder
	tuples int64
}

func (e *emitWrap) Emit(it stream.Item) error {
	t := e.rec.now()
	err := e.inner.Emit(it)
	e.rec.child(spanEmit, t, e.rec.now()-t)
	if it.Kind == stream.KindTuple {
		e.tuples++
	}
	return err
}

// spillWrap times the join's calls into a spill store.
type spillWrap struct {
	inner store.SpillStore
	rec   *recorder
}

var _ store.SpillStore = (*spillWrap)(nil)

func (s *spillWrap) done(t int64) { s.rec.child(spanStore, t, s.rec.now()-t) }

func (s *spillWrap) Append(partition int, data []byte) error {
	t := s.rec.now()
	err := s.inner.Append(partition, data)
	s.done(t)
	return err
}

func (s *spillWrap) Read(partition int) ([]byte, error) {
	t := s.rec.now()
	b, err := s.inner.Read(partition)
	s.done(t)
	return b, err
}

func (s *spillWrap) Truncate(partition int) error {
	t := s.rec.now()
	err := s.inner.Truncate(partition)
	s.done(t)
	return err
}

func (s *spillWrap) Size(partition int) (int64, error) {
	t := s.rec.now()
	n, err := s.inner.Size(partition)
	s.done(t)
	return n, err
}

func (s *spillWrap) OpenScan(partition int) (store.ScanCursor, error) {
	t := s.rec.now()
	c, err := s.inner.OpenScan(partition)
	s.done(t)
	if err != nil {
		return nil, err
	}
	return &cursorWrap{inner: c, s: s}, nil
}

func (s *spillWrap) Stats() (store.IOStats, error) { return s.inner.Stats() }
func (s *spillWrap) Close() error                  { return s.inner.Close() }

type cursorWrap struct {
	inner store.ScanCursor
	s     *spillWrap
}

func (c *cursorWrap) NextChunk(budget int) ([]byte, error) {
	t := c.s.rec.now()
	b, err := c.inner.NextChunk(budget)
	c.s.done(t)
	return b, err
}

func (c *cursorWrap) Tail() ([]byte, error) {
	t := c.s.rec.now()
	b, err := c.inner.Tail()
	c.s.done(t)
	return b, err
}

func (c *cursorWrap) Close() error {
	t := c.s.rec.now()
	err := c.inner.Close()
	c.s.done(t)
	return err
}

// spanTotals sums, per span name, the duration and the self time (the
// duration minus the children's) of one recorder's spans.
type spanTotals struct {
	dur, self [len(spanNames)]int64
	n         [len(spanNames)]int64
	parents   int64 // total duration of parent spans
}

// totals sums a recorder's spans; a nil recorder (an operator the plan
// does not have) sums to zero.
func totals(r *recorder) (spanTotals, error) {
	var t spanTotals
	if r == nil {
		return t, nil
	}
	childDur := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			childDur[s.parent] += s.dur
		}
	}
	for i, s := range r.spans {
		self := s.dur - childDur[i]
		if self < 0 {
			return t, fmt.Errorf("trace: %s span at %d ns: children cover %d ns of %d", spanNames[s.name], s.start, childDur[i], s.dur)
		}
		t.dur[s.name] += s.dur
		t.self[s.name] += self
		t.n[s.name] += int64(s.n)
		if s.parent < 0 {
			t.parents += s.dur
		}
	}
	return t, nil
}

// writeSpans writes every span as a tab-separated line (recorder,
// name, start ns, duration ns, parent index, aggregated calls) to a
// gzip file.
func writeSpans(path string, recs ...*recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "rec\tname\tstart_ns\tdur_ns\tparent\tn")
	for ri, r := range recs {
		if r == nil {
			continue
		}
		for _, s := range r.spans {
			fmt.Fprintf(bw, "%d\t%s\t%d\t%d\t%d\t%d\n", ri, spanNames[s.name], s.start, s.dur, s.parent, s.n)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
