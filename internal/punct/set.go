package punct

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"pjoin/internal/value"
)

// PID identifies a punctuation inside one Set. PIDs are assigned in
// arrival order starting at 1; 0 means "no punctuation" and is the pid of
// unindexed tuples (the paper's null pid, Fig. 2(b)).
type PID uint64

// NoPID is the null pid: the tuple has not been matched to any
// punctuation yet.
const NoPID PID = 0

// Entry is one punctuation held in a Set together with the propagation
// bookkeeping of the paper's punctuation index (Fig. 2(a)): a unique pid,
// the count of state tuples currently matched to it, and whether the
// index-build component has processed it yet.
type Entry struct {
	PID     PID
	P       Punctuation
	Count   int  // state tuples whose pid == PID
	Indexed bool // index build has assigned tuples to this punctuation

	// ArrivedAt is the stream timestamp (ns, a stream.Time value — this
	// package sits below internal/stream) at which the punctuation
	// arrived at the operator. Propagation records now − ArrivedAt as the
	// punctuation's propagation delay (internal/obs.Lat.PunctDelay).
	ArrivedAt int64

	// Propagated marks an entry that was already released downstream but
	// retained in the set (instead of removed, §3.5) so it keeps serving
	// the purge and drop-on-the-fly rules. Retention keeps a set's
	// membership independent of propagation timing, which hash-partitioned
	// parallel joins need: each partition reaches count zero at its own
	// pace, and an early partition must not lose the punctuation's purge
	// power over later arrivals. See core.Config.RetainPropagated.
	Propagated bool

	// TraceID is the punctuation's provenance trace (internal/obs/span),
	// assigned by the operator at arrival when span tracing is on. Purge
	// and drop attribution resolve the responsible entry and stamp its
	// TraceID on the span; zero when tracing is off.
	TraceID uint64

	// zeroCand records that the entry sits in its set's zero-count
	// candidate list (see Set.zero).
	zeroCand bool
}

// ExhaustiveOn reports whether the punctuation promises exhaustion of a
// single attribute: "no future tuple whose attribute attr has value v"
// follows from a punctuation only when EVERY other pattern is wildcard
// (otherwise it merely excludes a subset of such tuples). This is the
// precondition for using a punctuation in the cross-stream purge and
// drop-on-the-fly rules, which reason about the join attribute alone.
func (e *Entry) ExhaustiveOn(attr int) bool {
	return exhaustiveOn(e.P, attr)
}

func exhaustiveOn(p Punctuation, attr int) bool {
	if attr >= p.Width() {
		return false
	}
	for i := 0; i < p.Width(); i++ {
		if i == attr {
			continue
		}
		if p.PatternAt(i).Kind() != Wildcard {
			return false
		}
	}
	return true
}

// Set is an arrival-ordered punctuation set PS(T) for one input stream
// (§2.2). It supports the two derived predicates the purge and
// propagation rules need — setMatch and count-to-zero detection — and
// optionally verifies the paper's nested-or-disjoint assumption over the
// join attribute.
//
// An entry's Count, Indexed and Propagated fields are read-only outside
// the set: they change only through IncCount, DecCount, MarkAllIndexed
// and MarkPropagated, which keep the incremental Unindexed and
// Propagable lists in step.
type Set struct {
	entries []*Entry
	next    PID

	// verifyAttr >= 0 enables checking that each newly added punctuation's
	// pattern on that attribute is either disjoint from or a superset of
	// every earlier pattern (§2.2's Ptn_i ∧ Ptn_j ∈ {∅, Ptn_i}).
	verifyAttr int

	// narrow holds, in arrival order, the entries whose verified-attribute
	// pattern is a Range or an Enum. A Constant, Wildcard or Empty
	// pattern is nested-or-disjoint with every pattern, so only a
	// Range/Enum newcomer needs checking, and only against these.
	narrow []*Entry

	// pending holds the entries index build has not processed yet, in
	// arrival order (Unindexed).
	pending []*Entry

	// zero holds the candidates for Propagable: indexed entries that
	// reached count zero. It may hold stale entries (count back above
	// zero, propagated or removed); Propagable filters them out. An entry
	// is in the list exactly while its zeroCand flag is set, except that
	// Remove clears the flag of an entry it leaves behind in the list.
	zero []*Entry

	// keyAttr >= 0 enables a fast-path index over that attribute for
	// SetMatchAttr/FirstMatchAttr: entries whose key pattern is a
	// constant live in constIdx, the rest in nonConst. Per-tuple set
	// matching (drop-on-the-fly, purge scans) is then O(1) amortised for
	// the common constant-punctuation workloads instead of O(set size).
	keyAttr  int
	constIdx map[value.Value][]*Entry
	nonConst []*Entry

	// byPID resolves pids to entries in O(1); Get is on the per-purged-
	// tuple path (count decrements).
	byPID map[PID]*Entry
}

// NewSet returns an empty punctuation set with assumption verification
// and key indexing disabled.
func NewSet() *Set {
	return &Set{next: 1, verifyAttr: -1, keyAttr: -1, byPID: make(map[PID]*Entry)}
}

// NewVerifiedSet returns an empty set that checks the nested-or-disjoint
// assumption on join attribute attr for every Add, and indexes that
// attribute for fast SetMatchAttr lookups.
func NewVerifiedSet(attr int) *Set { return NewKeyedSet(attr, true) }

// NewKeyedSet returns an empty set that indexes attribute attr for fast
// SetMatchAttr/FirstMatchAttr lookups; verify additionally enables the
// nested-or-disjoint assumption check on that attribute.
func NewKeyedSet(attr int, verify bool) *Set {
	if attr < 0 {
		panic("punct: NewKeyedSet with negative attribute")
	}
	s := &Set{
		next: 1, verifyAttr: -1, keyAttr: attr,
		constIdx: make(map[value.Value][]*Entry),
		byPID:    make(map[PID]*Entry),
	}
	if verify {
		s.verifyAttr = attr
	}
	return s
}

// Len returns the number of punctuations currently in the set.
func (s *Set) Len() int { return len(s.entries) }

// Add appends p to the set, assigning the next pid, and returns its
// entry. If verification is enabled and p violates the nested-or-disjoint
// assumption against an earlier punctuation, Add reports an error and the
// set is unchanged.
func (s *Set) Add(p Punctuation) (*Entry, error) {
	if p.IsZero() {
		return nil, fmt.Errorf("punct: Add of zero punctuation")
	}
	if s.verifyAttr >= 0 {
		if s.verifyAttr >= p.Width() {
			return nil, fmt.Errorf("punct: verified attribute %d out of range for width %d", s.verifyAttr, p.Width())
		}
		if np := &p.patterns[s.verifyAttr]; np.narrow() {
			for _, e := range s.narrow {
				if !nestedOrDisjoint(np, &e.P.patterns[s.verifyAttr]) {
					return nil, fmt.Errorf("punct: punctuation %s overlaps earlier %s on attribute %d without nesting",
						p, e.P, s.verifyAttr)
				}
			}
		}
	}
	e := &Entry{PID: s.next, P: p}
	s.next++
	s.entries = append(s.entries, e)
	s.byPID[e.PID] = e
	s.pending = append(s.pending, e)
	if s.isNarrow(e) {
		s.narrow = append(s.narrow, e)
	}
	s.addToIndex(e)
	return e, nil
}

// narrow reports whether the pattern is a Range or an Enum: the only
// kinds that can overlap another pattern without nesting (§2.2). A
// Constant {c} lies inside or outside any pattern, the wildcard
// contains every pattern and the empty pattern is disjoint from all.
func (p *Pattern) narrow() bool { return p.kind == Range || p.kind == Enum }

// isNarrow reports whether the entry belongs in the verification list.
func (s *Set) isNarrow(e *Entry) bool {
	return s.verifyAttr >= 0 && e.P.patterns[s.verifyAttr].narrow()
}

// nestedOrDisjoint is §2.2's pairwise condition: the patterns share no
// value, or one contains the other. A new pattern CONTAINED in an
// earlier one is also accepted: it is a redundant re-promise (possible
// when the earlier entry is the union of compacted punctuations) and
// violates nothing semantically.
func nestedOrDisjoint(np, old *Pattern) bool {
	return np.Contains(*old) || old.Contains(*np) || np.Disjoint(*old)
}

// addToIndex classifies an entry for the keyed fast path. Entries that
// are not exhaustive on the key attribute are indexed NOWHERE: they can
// never satisfy an attribute-exhaustion query.
func (s *Set) addToIndex(e *Entry) {
	if s.keyAttr < 0 || !exhaustiveOn(e.P, s.keyAttr) {
		return
	}
	if e.P.PatternAt(s.keyAttr).Kind() == Constant {
		v := e.P.PatternAt(s.keyAttr).ConstVal()
		s.constIdx[v] = append(s.constIdx[v], e)
	} else {
		s.nonConst = append(s.nonConst, e)
	}
}

// Entries returns the entries in arrival order. The slice is shared; do
// not append to it.
func (s *Set) Entries() []*Entry { return s.entries }

// Get returns the entry with the given pid, or nil.
func (s *Set) Get(pid PID) *Entry { return s.byPID[pid] }

// Remove deletes the entry with the given pid, preserving arrival order
// of the rest, and reports whether it was present. Propagated
// punctuations "are immediately removed from the punctuation set" (§3.5).
func (s *Set) Remove(pid PID) bool {
	e := s.byPID[pid]
	if e == nil {
		return false
	}
	i, _ := slices.BinarySearchFunc(s.entries, pid, func(e *Entry, pid PID) int { return cmp.Compare(e.PID, pid) })
	s.entries = deleteEntry(s.entries, i)
	delete(s.byPID, pid)
	s.dropFromIndex(e)
	if !e.Indexed {
		s.pending = dropEntry(s.pending, e)
	}
	if s.isNarrow(e) {
		s.narrow = dropEntry(s.narrow, e)
	}
	e.zeroCand = false // Propagable drops it from the zero list
	return true
}

// deleteEntry removes es[i], preserving order, and clears the vacated
// tail slot so the backing array does not pin the entry.
func deleteEntry(es []*Entry, i int) []*Entry {
	copy(es[i:], es[i+1:])
	es[len(es)-1] = nil
	return es[:len(es)-1]
}

// dropEntry removes e from es if present, preserving order.
func dropEntry(es []*Entry, e *Entry) []*Entry {
	for i, x := range es {
		if x == e {
			return deleteEntry(es, i)
		}
	}
	return es
}

func (s *Set) dropFromIndex(e *Entry) {
	if s.keyAttr < 0 || !exhaustiveOn(e.P, s.keyAttr) {
		return
	}
	if e.P.PatternAt(s.keyAttr).Kind() == Constant {
		v := e.P.PatternAt(s.keyAttr).ConstVal()
		es := s.constIdx[v]
		for i, x := range es {
			if x == e {
				es = append(es[:i], es[i+1:]...)
				break
			}
		}
		if len(es) == 0 {
			delete(s.constIdx, v)
		} else {
			s.constIdx[v] = es
		}
		return
	}
	for i, x := range s.nonConst {
		if x == e {
			s.nonConst = append(s.nonConst[:i], s.nonConst[i+1:]...)
			return
		}
	}
}

// SetMatch implements setMatch(t, PS): whether any punctuation in the set
// matches the tuple's attribute values (§2.2). This is the predicate of
// the purge rules (eq. 1).
//
//pjoin:hotpath
func (s *Set) SetMatch(attrs []value.Value) bool {
	for _, e := range s.entries {
		if e.P.Matches(attrs) {
			return true
		}
	}
	return false
}

// SetMatchAttr reports whether any punctuation promises that no future
// tuple will carry value v in attribute attr. This is the cross-stream
// form of setMatch the purge rules use: a tuple of stream B is purged
// when its join value is exhausted by stream A's punctuation set (§2.2,
// "we only focus on exploiting punctuations over the join attribute").
//
// Only entries exhaustive on attr qualify (every other pattern
// wildcard): a punctuation that also constrains other attributes merely
// excludes a subset of the tuples carrying v, which licenses nothing.
//
//pjoin:hotpath
func (s *Set) SetMatchAttr(attr int, v value.Value) bool {
	return s.FirstMatchAttr(attr, v) != nil
}

// FirstMatchAttr returns the earliest-arrived entry that exhausts value
// v on attribute attr (see SetMatchAttr), or nil. When attr is the
// set's indexed key attribute the lookup is O(1) plus the number of
// non-constant patterns.
//
//pjoin:hotpath
func (s *Set) FirstMatchAttr(attr int, v value.Value) *Entry {
	if attr != s.keyAttr {
		for _, e := range s.entries {
			if exhaustiveOn(e.P, attr) && e.P.PatternAt(attr).Matches(v) {
				return e
			}
		}
		return nil
	}
	var best *Entry
	if es := s.constIdx[v]; len(es) > 0 {
		best = es[0] // append order = arrival order
	}
	for _, e := range s.nonConst {
		if best != nil && e.PID >= best.PID {
			break // nonConst is in arrival order; nothing earlier follows
		}
		if e.P.PatternAt(attr).Matches(v) {
			best = e
			break
		}
	}
	return best
}

// FirstMatch returns the earliest-arrived entry whose punctuation matches
// the tuple, or nil. The punctuation index always assigns a tuple "the
// pid of the first arrived punctuation found to be matched" (§3.5).
//
//pjoin:hotpath
func (s *Set) FirstMatch(attrs []value.Value) *Entry {
	for _, e := range s.entries {
		if e.P.Matches(attrs) {
			return e
		}
	}
	return nil
}

// MaxPID returns the largest pid assigned so far (NoPID if the set has
// never held an entry). PIDs are assigned in arrival order, so together
// with PurgePlan's `after` parameter this supports incremental purge
// watermarks.
func (s *Set) MaxPID() PID { return s.next - 1 }

// PurgePlan partitions the entries usable for purging on attribute attr
// — those exhaustive on attr (see SetMatchAttr) — into values that can
// be purged by direct key-group lookup (Constant patterns and
// Enumeration members) and entries that require a state scan (Range and
// Wildcard patterns). Entries with PID <= after are skipped: a caller
// that knows the state holds no tuple matching them (e.g. because a
// previous purge run removed them and drop-on-the-fly has kept matching
// arrivals out since) passes its watermark to plan only the new
// punctuations. Pass NoPID to plan over the whole set. Entries are
// PID-sorted, so the plan costs O(log n + new entries).
func (s *Set) PurgePlan(attr int, after PID) (direct []value.Value, scan []*Entry) {
	start := sort.Search(len(s.entries), func(i int) bool { return s.entries[i].PID > after })
	for _, e := range s.entries[start:] {
		if !exhaustiveOn(e.P, attr) {
			continue
		}
		switch p := e.P.PatternAt(attr); p.Kind() {
		case Constant:
			direct = append(direct, p.ConstVal())
		case Enum:
			direct = append(direct, p.Members()...)
		case Empty:
			// Matches nothing; no purge power.
		default: // Range, Wildcard
			scan = append(scan, e)
		}
	}
	return direct, scan
}

// Unindexed returns the entries not yet processed by index build, in
// arrival order (the pIndexSet of Fig. 3, lines 2-6). The slice is
// shared and valid until the set next changes; do not append to it.
func (s *Set) Unindexed() []*Entry { return s.pending }

// MarkAllIndexed records that index build has processed every entry
// Unindexed returns. Entries whose count is zero become propagable.
func (s *Set) MarkAllIndexed() {
	for i, e := range s.pending {
		e.Indexed = true
		s.noteZero(e)
		s.pending[i] = nil
	}
	s.pending = s.pending[:0]
}

// IncCount records one more state tuple matched to e.
//
//pjoin:hotpath
func (s *Set) IncCount(e *Entry) { e.Count++ }

// DecCount records that a state tuple matched to pid left the state. It
// is a no-op for the null pid, an unknown pid or a zero count.
//
//pjoin:hotpath
func (s *Set) DecCount(pid PID) {
	if pid == NoPID {
		return
	}
	if e := s.byPID[pid]; e != nil && e.Count > 0 {
		e.Count--
		s.noteZero(e)
	}
}

// MarkPropagated records that e was released downstream but stays in
// the set (see Entry.Propagated).
func (s *Set) MarkPropagated(e *Entry) { e.Propagated = true }

// noteZero puts e on the zero-count candidate list if it is propagable
// and not listed yet.
func (s *Set) noteZero(e *Entry) {
	if e.Indexed && e.Count == 0 && !e.Propagated && !e.zeroCand {
		e.zeroCand = true
		s.zero = append(s.zero, e)
	}
}

// Propagable returns the indexed entries whose count is zero and that
// have not been released yet, in arrival order: by Theorem 1 these
// punctuations can be propagated downstream now. Entries retained after
// propagation (Entry.Propagated) are excluded so they are released at
// most once. The cost is the number of candidates, not the set size.
func (s *Set) Propagable() []*Entry {
	keep := s.zero[:0]
	for _, e := range s.zero {
		switch {
		case !e.zeroCand:
			// Removed from the set.
		case e.Count == 0 && !e.Propagated:
			keep = append(keep, e)
		default:
			e.zeroCand = false
		}
	}
	clear(s.zero[len(keep):])
	s.zero = keep
	if len(keep) == 0 {
		return nil
	}
	slices.SortFunc(keep, func(a, b *Entry) int { return cmp.Compare(a.PID, b.PID) })
	return append([]*Entry(nil), keep...)
}

// String renders the set as "{pid:punct#count, ...}" for debugging.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range s.entries {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d:%s#%d", e.PID, e.P, e.Count)
	}
	b.WriteByte('}')
	return b.String()
}
