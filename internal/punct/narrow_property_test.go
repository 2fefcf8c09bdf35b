package punct

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refVerify is the full pairwise §2.2 check Set.Add performed before
// verification was narrowed to Range/Enum pairs: the new pattern on the
// verified attribute against every earlier entry, in arrival order,
// with the same error text.
func refVerify(s *Set, p Punctuation) error {
	np := p.PatternAt(s.verifyAttr)
	for _, e := range s.Entries() {
		old := e.P.PatternAt(s.verifyAttr)
		if !np.Disjoint(old) && !np.Contains(old) && !old.Contains(np) {
			return fmt.Errorf("punct: punctuation %s overlaps earlier %s on attribute %d without nesting",
				p, e.P, s.verifyAttr)
		}
	}
	return nil
}

// refUnindexed and refPropagable are the whole-set filters the
// incremental pending and zero-count lists replace.
func refUnindexed(s *Set) []*Entry {
	var out []*Entry
	for _, e := range s.Entries() {
		if !e.Indexed {
			out = append(out, e)
		}
	}
	return out
}

func refPropagable(s *Set) []*Entry {
	var out []*Entry
	for _, e := range s.Entries() {
		if e.Indexed && e.Count == 0 && !e.Propagated {
			out = append(out, e)
		}
	}
	return out
}

// Differential property: narrowed verification accepts and rejects
// exactly what the full pairwise loop does, with identical error text,
// over random sequences of all five pattern kinds interleaved with
// Remove, Compact, index build, count changes and retained propagated
// entries; Unindexed and Propagable always equal the whole-set filters.
func TestNarrowedVerificationMatchesFullLoop(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewVerifiedSet(0)
		accepted, rejected := 0, 0
		for step := 0; step < 120; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				// The second attribute is usually a wildcard so entries
				// stay exhaustive, and Compact has equal neighbours to
				// merge.
				other := Star()
				if rng.Intn(4) == 0 {
					other = Const(iv(int64(rng.Intn(2))))
				}
				p := MustNew(randomPattern(rng), other)
				want := refVerify(s, p)
				_, got := s.Add(p)
				if (want == nil) != (got == nil) || (want != nil && want.Error() != got.Error()) {
					t.Fatalf("seed %d step %d: Add(%s) = %v, full loop says %v; set %s", seed, step, p, got, want, s)
				}
				if got == nil {
					accepted++
				} else {
					rejected++
				}
			case op == 5 && s.Len() > 0:
				e := s.Entries()[rng.Intn(s.Len())]
				if !s.Remove(e.PID) {
					t.Fatalf("seed %d step %d: Remove(%d) of a present entry", seed, step, e.PID)
				}
			case op == 6:
				s.Compact(0)
			case op == 7:
				// Index build: give some pending entries matched tuples.
				for _, e := range s.Unindexed() {
					for n := rng.Intn(3); n > 0; n-- {
						s.IncCount(e)
					}
				}
				s.MarkAllIndexed()
			case op == 8 && s.Len() > 0:
				e := s.Entries()[rng.Intn(s.Len())]
				if rng.Intn(3) == 0 {
					s.IncCount(e)
				} else {
					s.DecCount(e.PID)
				}
			case op == 9:
				// Propagation: retain some released entries, remove the
				// rest.
				for _, e := range s.Propagable() {
					if rng.Intn(2) == 0 {
						s.MarkPropagated(e)
					} else {
						s.Remove(e.PID)
					}
				}
			}
			if got, want := s.Unindexed(), refUnindexed(s); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: Unindexed = %v, want %v", seed, step, got, want)
			}
			if got, want := s.Propagable(), refPropagable(s); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: Propagable = %v, want %v", seed, step, got, want)
			}
		}
		if accepted == 0 || rejected == 0 {
			t.Errorf("seed %d: %d accepted, %d rejected: sequence exercised one side only", seed, accepted, rejected)
		}
	}
}
