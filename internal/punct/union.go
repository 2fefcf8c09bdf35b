package punct

import (
	"pjoin/internal/value"
)

// maxUnionEnum bounds the size of enumeration patterns produced by
// TryUnion so compaction never trades a small set of punctuations for
// one enormous pattern.
const maxUnionEnum = 32

// TryUnion returns a single pattern matching exactly the union of the
// values p and q match, when such a pattern exists (and is worth
// having). It reports ok=false when the union is not representable as
// one pattern — e.g. two disjoint, non-adjacent ranges.
//
// Unions are what punctuation-set compaction needs: two active
// punctuations may be replaced by one that matches exactly their union,
// since both promises are in force. (Contrast And/conjunction, which the
// paper defines; union is this repository's extension.)
func (p Pattern) TryUnion(q Pattern) (Pattern, bool) {
	if p.kind == Wildcard || q.kind == Wildcard {
		return Star(), true
	}
	if p.kind == Empty {
		return q, true
	}
	if q.kind == Empty {
		return p, true
	}
	// Normalise so ranges come first, then enums, then constants.
	if rank(q.kind) < rank(p.kind) {
		p, q = q, p
	}
	switch p.kind {
	case Range:
		switch q.kind {
		case Range:
			return unionRanges(p, q)
		case Enum:
			return unionRangeValues(p, q.set)
		case Constant:
			return unionRangeValues(p, []value.Value{q.lo})
		}
	case Enum:
		switch q.kind {
		case Enum:
			return unionEnums(append(append([]value.Value{}, p.set...), q.set...))
		case Constant:
			return unionEnums(append(append([]value.Value{}, p.set...), q.lo))
		}
	case Constant:
		if q.kind == Constant {
			if p.lo.Equal(q.lo) {
				return p, true
			}
			if sameOrderedKind(p.lo, q.lo) {
				lo, hi := p.lo, q.lo
				if hi.Less(lo) {
					lo, hi = hi, lo
				}
				if adjacent(lo, hi) {
					r, err := NewRange(lo, hi)
					return r, err == nil
				}
			}
			return unionEnums([]value.Value{p.lo, q.lo})
		}
	}
	return Pattern{}, false
}

func rank(k PatternKind) int {
	switch k {
	case Range:
		return 0
	case Enum:
		return 1
	case Constant:
		return 2
	default:
		return 3
	}
}

func sameOrderedKind(a, b value.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	_, err := a.Compare(b)
	return err == nil
}

// adjacent reports whether hi immediately follows lo in a discrete
// domain (ints, bools), so [lo..hi] covers exactly {lo, hi}… or their
// in-betweens when they are farther apart — callers only use it for the
// "touching" test, i.e. succ(lo) == hi.
func adjacent(lo, hi value.Value) bool {
	s, ok := lo.Succ()
	return ok && s.Equal(hi)
}

func unionRanges(p, q Pattern) (Pattern, bool) {
	if !sameOrderedKind(p.lo, q.lo) {
		return Pattern{}, false
	}
	// Overlapping or touching (for discrete kinds, off-by-one touching
	// also merges).
	overlaps := func(a, b Pattern) bool {
		c1, _ := a.lo.Compare(b.hi)
		c2, _ := b.lo.Compare(a.hi)
		return c1 <= 0 && c2 <= 0
	}
	touching := adjacent(p.hi, q.lo) || adjacent(q.hi, p.lo)
	if !overlaps(p, q) && !touching {
		return Pattern{}, false
	}
	lo := p.lo
	if q.lo.Less(lo) {
		lo = q.lo
	}
	hi := p.hi
	if hi.Less(q.hi) {
		hi = q.hi
	}
	r, err := NewRange(lo, hi)
	return r, err == nil
}

// unionRangeValues extends a range by values that are inside or
// discretely adjacent to it; any value that would leave a gap defeats
// the union.
func unionRangeValues(r Pattern, vs []value.Value) (Pattern, bool) {
	lo, hi := r.lo, r.hi
	for _, v := range vs {
		if !sameOrderedKind(lo, v) {
			return Pattern{}, false
		}
		switch {
		case r.Matches(v):
			// already covered
		case adjacent(v, lo):
			lo = v
		case adjacent(hi, v):
			hi = v
		default:
			return Pattern{}, false
		}
		nr, err := NewRange(lo, hi)
		if err != nil || nr.kind != Range {
			return Pattern{}, false
		}
		r = nr
	}
	out, err := NewRange(lo, hi)
	return out, err == nil
}

func unionEnums(vs []value.Value) (Pattern, bool) {
	p, err := NewEnum(vs...)
	if err != nil {
		return Pattern{}, false
	}
	if p.kind == Enum && len(p.set) > maxUnionEnum {
		return Pattern{}, false
	}
	// A dense integer enum collapses to a range.
	if p.kind == Enum && p.set[0].Kind() == value.KindInt {
		lo, hi := p.set[0].IntVal(), p.set[len(p.set)-1].IntVal()
		if hi-lo+1 == int64(len(p.set)) {
			r, err := NewRange(value.Int(lo), value.Int(hi))
			if err == nil {
				return r, true
			}
		}
	}
	return p, true
}

// Compact merges pairs of not-yet-indexed punctuations that differ only
// in attribute attr and whose attr patterns union into a single pattern.
// Indexed entries are left alone: stored tuples may reference their pids
// and their counts must stay attributable. Compact returns the number of
// entries removed.
//
// Compaction matters for long propagation-less runs: the purge and
// drop-on-the-fly rules consult the punctuation set on every tuple, and
// constant-per-key punctuations otherwise accumulate without bound.
func (s *Set) Compact(attr int) int {
	removed := 0
	for i := 0; i < len(s.entries); i++ {
		a := s.entries[i]
		if a.Indexed || attr >= a.P.Width() {
			continue
		}
		for j := i + 1; j < len(s.entries); {
			b := s.entries[j]
			if b.Indexed || b.P.Width() != a.P.Width() {
				j++
				continue
			}
			if !samePatternsExcept(a.P, b.P, attr) {
				j++
				continue
			}
			u, ok := a.P.PatternAt(attr).TryUnion(b.P.PatternAt(attr))
			if !ok {
				j++
				continue
			}
			// Merge b into a: a keeps its (earlier) pid and position.
			pats := make([]Pattern, a.P.Width())
			for k := 0; k < a.P.Width(); k++ {
				pats[k] = a.P.PatternAt(k)
			}
			pats[attr] = u
			merged, err := New(pats...)
			if err != nil {
				j++
				continue
			}
			s.dropFromIndex(a)
			s.dropFromIndex(b)
			s.narrow = dropEntry(s.narrow, a)
			s.narrow = dropEntry(s.narrow, b)
			s.pending = dropEntry(s.pending, b)
			a.P = merged
			s.entries = deleteEntry(s.entries, j)
			delete(s.byPID, b.PID)
			s.reindex(a)
			removed++
		}
	}
	return removed
}

func samePatternsExcept(p, q Punctuation, attr int) bool {
	for i := 0; i < p.Width(); i++ {
		if i == attr {
			continue
		}
		if !p.PatternAt(i).Equal(q.PatternAt(i)) {
			return false
		}
	}
	return true
}

// reindex re-registers an entry whose punctuation changed in the keyed
// fast-path index and the verification list, preserving arrival order
// within each.
func (s *Set) reindex(e *Entry) {
	if s.isNarrow(e) {
		s.narrow = append(s.narrow, e)
		sortEntriesByPID(s.narrow)
	}
	if s.keyAttr < 0 || !exhaustiveOn(e.P, s.keyAttr) {
		return
	}
	if e.P.PatternAt(s.keyAttr).Kind() == Constant {
		v := e.P.PatternAt(s.keyAttr).ConstVal()
		s.constIdx[v] = append(s.constIdx[v], e)
		sortEntriesByPID(s.constIdx[v])
		return
	}
	s.nonConst = append(s.nonConst, e)
	sortEntriesByPID(s.nonConst)
}

func sortEntriesByPID(es []*Entry) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j].PID < es[j-1].PID; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}
