package core

import (
	"fmt"

	"pjoin/internal/op"
	"pjoin/internal/punct"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// NaryPJoin is the n-ary extension of PJoin sketched in the paper's §6:
// an n-input hash equi-join on one attribute per stream, where a
// punctuation from stream i lets the operator purge tuples from the
// other n-1 states and drop covered arrivals on the fly.
//
// The purge condition is the sound generalisation of eq. 1 implemented
// by deadValue: a tuple is useless once no future result can contain it,
// which refines the paper's sketch ("purge the states of all other n-1
// streams") with the state-emptiness condition that makes it safe.
//
// NaryPJoin is memory-only (no relocation/disk join) and uses eager
// purge; it exists to demonstrate the extension, not to replace the
// binary operator.
type NaryPJoin struct {
	schemas []*stream.Schema
	attrs   []int
	outSc   *stream.Schema
	out     op.Emitter
	// offsets[i] is the position of stream i's first attribute in the
	// output schema.
	offsets []int

	// Per stream: join value -> stored tuples (with pid for counts).
	tables []map[value.Value][]*naryTuple
	sizes  []int
	psets  []*punct.Set

	eos      []bool
	eosSeen  int
	finished bool
	now      stream.Time

	// Metrics.
	resultsOut int64
	punctsOut  int64
	purged     int64
	droppedFly int64
}

type naryTuple struct {
	t   *stream.Tuple
	pid punct.PID
}

var _ op.Operator = (*NaryPJoin)(nil)

// NewNary builds an n-ary PJoin over the given schemas joining on the
// given attribute of each (len(schemas) == len(attrs) >= 2; all join
// attributes must share one kind).
func NewNary(schemas []*stream.Schema, attrs []int, out op.Emitter) (*NaryPJoin, error) {
	if len(schemas) < 2 {
		return nil, fmt.Errorf("core: nary: need at least 2 inputs, got %d", len(schemas))
	}
	if len(attrs) != len(schemas) {
		return nil, fmt.Errorf("core: nary: %d schemas but %d attributes", len(schemas), len(attrs))
	}
	if out == nil {
		return nil, fmt.Errorf("core: nary: output emitter required")
	}
	var kind value.Kind
	for i, sc := range schemas {
		if sc == nil {
			return nil, fmt.Errorf("core: nary: schema %d is nil", i)
		}
		if attrs[i] < 0 || attrs[i] >= sc.Width() {
			return nil, fmt.Errorf("core: nary: attribute %d out of range for %s", attrs[i], sc)
		}
		k := sc.FieldAt(attrs[i]).Kind
		if i == 0 {
			kind = k
		} else if k != kind {
			return nil, fmt.Errorf("core: nary: join attribute kinds differ: %s vs %s", kind, k)
		}
	}
	outSc := schemas[0]
	var err error
	for i := 1; i < len(schemas); i++ {
		outSc, err = outSc.Concat("join", schemas[i])
		if err != nil {
			return nil, err
		}
	}
	n := len(schemas)
	j := &NaryPJoin{
		schemas: schemas,
		attrs:   append([]int(nil), attrs...),
		outSc:   outSc,
		out:     out,
		tables:  make([]map[value.Value][]*naryTuple, n),
		sizes:   make([]int, n),
		psets:   make([]*punct.Set, n),
		offsets: make([]int, n),
		eos:     make([]bool, n),
	}
	off := 0
	for i := 0; i < n; i++ {
		j.tables[i] = make(map[value.Value][]*naryTuple)
		j.psets[i] = punct.NewKeyedSet(attrs[i], false)
		j.offsets[i] = off
		off += schemas[i].Width()
	}
	return j, nil
}

// Name implements op.Operator.
func (j *NaryPJoin) Name() string { return fmt.Sprintf("pjoin%d", len(j.schemas)) }

// NumPorts implements op.Operator.
func (j *NaryPJoin) NumPorts() int { return len(j.schemas) }

// OutSchema implements op.Operator.
func (j *NaryPJoin) OutSchema() *stream.Schema { return j.outSc }

// StateTuples returns the total stored tuples across all states.
func (j *NaryPJoin) StateTuples() int {
	total := 0
	for _, n := range j.sizes {
		total += n
	}
	return total
}

// Purged returns the number of tuples removed by punctuation purges.
func (j *NaryPJoin) Purged() int64 { return j.purged }

// DroppedOnFly returns the number of arrivals never stored.
func (j *NaryPJoin) DroppedOnFly() int64 { return j.droppedFly }

// ResultsOut returns the number of join results emitted.
func (j *NaryPJoin) ResultsOut() int64 { return j.resultsOut }

// Process implements op.Operator.
func (j *NaryPJoin) Process(port int, it stream.Item, now stream.Time) error {
	if err := op.ValidatePort(j.Name(), port, len(j.schemas)); err != nil {
		return err
	}
	if j.finished {
		return fmt.Errorf("core: nary: Process after Finish")
	}
	if now > j.now {
		j.now = now
	}
	switch it.Kind {
	case stream.KindTuple:
		return j.processTuple(port, it.Tuple)
	case stream.KindPunct:
		return j.processPunct(port, it.Punct, it.Ts)
	case stream.KindEOS:
		if j.eos[port] {
			return fmt.Errorf("core: nary: duplicate EOS on port %d", port)
		}
		j.eos[port] = true
		j.eosSeen++
		return nil
	default:
		return fmt.Errorf("core: nary: unknown item kind %v", it.Kind)
	}
}

func (j *NaryPJoin) processTuple(s int, t *stream.Tuple) error {
	key := t.Values[j.attrs[s]]

	// Probe: emit every combination of one matching tuple from each
	// other state together with t.
	if err := j.emitCombos(s, t, key); err != nil {
		return err
	}

	// Drop-on-the-fly (§6): if the join value is already dead — some
	// other stream has punctuated it and holds no matching tuples — the
	// arrival can never appear in a future result.
	if j.deadValue(s, key) {
		j.droppedFly++
		return nil
	}
	nt := &naryTuple{t: t, pid: punct.NoPID}
	if e := j.psets[s].FirstMatchAttr(j.attrs[s], key); e != nil {
		// Defensive: own-stream punctuation violations insert unindexed.
		return fmt.Errorf("core: nary: stream %d tuple %s violates an earlier punctuation", s, t)
	}
	j.tables[s][key] = append(j.tables[s][key], nt)
	j.sizes[s]++
	return nil
}

// deadValue reports whether, from stream s's perspective, the join
// value can never appear in a future result. A future result through an
// s-tuple needs one member from every other stream, at least one of them
// yet to arrive (all-current combinations were emitted on arrival). That
// is impossible exactly when
//
//   - every other stream has punctuated the value (no future member
//     anywhere), or
//   - some other stream k has punctuated it AND holds no matching tuple
//     (a k-member can be neither future nor current).
//
// For n = 2 both cases collapse to the paper's binary rule "the opposite
// stream punctuated it".
func (j *NaryPJoin) deadValue(s int, key value.Value) bool {
	allPunctuated := true
	for k := range j.schemas {
		if k == s {
			continue
		}
		punctuated := j.psets[k].SetMatchAttr(j.attrs[k], key)
		if !punctuated {
			allPunctuated = false
			continue
		}
		if len(j.tables[k][key]) == 0 {
			return true
		}
	}
	return allPunctuated
}

// emitCombos emits t joined with the cross product of matches from every
// other state.
func (j *NaryPJoin) emitCombos(s int, t *stream.Tuple, key value.Value) error {
	parts := make([][]*naryTuple, 0, len(j.schemas)-1)
	for k := range j.schemas {
		if k == s {
			continue
		}
		ms := j.tables[k][key]
		if len(ms) == 0 {
			return nil // no result possible
		}
		parts = append(parts, ms)
	}
	// Assemble results recursively in stream order.
	combo := make([]*stream.Tuple, len(j.schemas))
	combo[s] = t
	var rec func(pi, k int) error
	rec = func(pi, k int) error {
		if k == len(j.schemas) {
			vals := make([]value.Value, 0, j.outSc.Width())
			var ts stream.Time
			for _, m := range combo {
				vals = append(vals, m.Values...)
				if m.Ts > ts {
					ts = m.Ts
				}
			}
			j.resultsOut++
			return j.out.Emit(stream.TupleItem(&stream.Tuple{Values: vals, Ts: ts}))
		}
		if k == s {
			return rec(pi, k+1)
		}
		for _, m := range parts[pi] {
			combo[k] = m.t
			if err := rec(pi+1, k+1); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0, 0)
}

// processPunct records the punctuation, eagerly indexes its own state
// (counts for propagation), and purges every other state per the n-ary
// purge rule.
func (j *NaryPJoin) processPunct(s int, p punct.Punctuation, ts stream.Time) error {
	if p.IsEmpty() {
		return nil
	}
	if p.Width() != j.schemas[s].Width() {
		return fmt.Errorf("core: nary: punctuation %s width %d, stream %d schema %s",
			p, p.Width(), s, j.schemas[s])
	}
	e, err := j.psets[s].Add(p)
	if err != nil {
		return err
	}
	// Eager index build over stream s's own state. A constant or an
	// enumeration on the join attribute names the only key groups that
	// can hold a match; any other pattern walks every group.
	switch pat := p.PatternAt(j.attrs[s]); pat.Kind() {
	case punct.Constant:
		j.indexGroup(s, e, j.tables[s][pat.ConstVal()])
	case punct.Enum:
		for _, v := range pat.Members() {
			j.indexGroup(s, e, j.tables[s][v])
		}
	default:
		for _, group := range j.tables[s] {
			j.indexGroup(s, e, group)
		}
	}
	j.psets[s].MarkAllIndexed()

	// Eager purge of every other state (§6): remove tuples whose join
	// value is now dead.
	for k := range j.schemas {
		if k == s {
			continue
		}
		for key, tuples := range j.tables[k] {
			if !j.deadValue(k, key) {
				continue
			}
			for _, nt := range tuples {
				j.psets[k].DecCount(nt.pid)
			}
			j.purged += int64(len(tuples))
			j.sizes[k] -= len(tuples)
			delete(j.tables[k], key)
		}
	}
	return nil
}

// indexGroup gives e's pid to every unindexed tuple of group that
// matches it.
func (j *NaryPJoin) indexGroup(s int, e *punct.Entry, group []*naryTuple) {
	for _, nt := range group {
		if nt.pid == punct.NoPID && e.P.Matches(nt.t.Values) {
			nt.pid = e.PID
			j.psets[s].IncCount(e)
		}
	}
}

// RequestPropagation releases every currently propagable punctuation
// (pull mode). NaryPJoin otherwise propagates only at Finish, so the
// punctuation sets keep serving the purge and drop-on-the-fly rules
// during the run.
func (j *NaryPJoin) RequestPropagation(now stream.Time) error {
	if now > j.now {
		j.now = now
	}
	return j.propagate(j.now)
}

// propagate releases every punctuation whose own-state count reached
// zero, rewritten over the output schema (its own positions keep their
// patterns; every stream's join attribute inherits the join pattern).
func (j *NaryPJoin) propagate(ts stream.Time) error {
	for s, set := range j.psets {
		for _, e := range set.Propagable() {
			pats := make([]punct.Pattern, j.outSc.Width())
			for i := range pats {
				pats[i] = punct.Star()
			}
			for i := 0; i < e.P.Width(); i++ {
				pats[j.offsets[s]+i] = e.P.PatternAt(i)
			}
			outP, err := punct.New(pats...)
			if err != nil {
				return err
			}
			if err := j.out.Emit(stream.PunctItem(outP, ts)); err != nil {
				return err
			}
			j.punctsOut++
			set.Remove(e.PID)
		}
	}
	return nil
}

// OnIdle implements op.Operator.
func (j *NaryPJoin) OnIdle(stream.Time) (bool, error) { return false, nil }

// Finish implements op.Operator.
func (j *NaryPJoin) Finish(now stream.Time) error {
	if j.finished {
		return fmt.Errorf("core: nary: double Finish")
	}
	if j.eosSeen != len(j.schemas) {
		return fmt.Errorf("core: nary: Finish before EOS on all %d ports", len(j.schemas))
	}
	if now > j.now {
		j.now = now
	}
	if err := j.propagate(j.now); err != nil {
		return err
	}
	j.finished = true
	return j.out.Emit(stream.EOSItem(j.now))
}
