package punct

import (
	"testing"

	"pjoin/internal/value"
)

func keyPunct(t *testing.T, key int64) Punctuation {
	t.Helper()
	return MustKeyOnly(2, 0, Const(iv(key)))
}

func TestSetAddAssignsSequentialPIDs(t *testing.T) {
	s := NewSet()
	for i := int64(1); i <= 3; i++ {
		e, err := s.Add(keyPunct(t, i))
		if err != nil {
			t.Fatal(err)
		}
		if e.PID != PID(i) {
			t.Errorf("pid = %d, want %d", e.PID, i)
		}
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestSetAddZeroPunctuation(t *testing.T) {
	if _, err := NewSet().Add(Punctuation{}); err == nil {
		t.Error("adding zero punctuation should error")
	}
}

func TestSetMatchAndFirstMatch(t *testing.T) {
	s := NewSet()
	e1, _ := s.Add(MustKeyOnly(2, 0, MustRange(iv(0), iv(10))))
	e2, _ := s.Add(MustKeyOnly(2, 0, MustRange(iv(0), iv(100))))
	tup := []value.Value{iv(5), value.Str("x")}
	if !s.SetMatch(tup) {
		t.Error("SetMatch should be true")
	}
	if got := s.FirstMatch(tup); got != e1 {
		t.Errorf("FirstMatch = %v, want first-arrived entry", got)
	}
	tup2 := []value.Value{iv(50), value.Str("x")}
	if got := s.FirstMatch(tup2); got != e2 {
		t.Errorf("FirstMatch = %v, want second entry", got)
	}
	tup3 := []value.Value{iv(500), value.Str("x")}
	if s.SetMatch(tup3) || s.FirstMatch(tup3) != nil {
		t.Error("no entry should match 500")
	}
}

func TestSetRemoveAndGet(t *testing.T) {
	s := NewSet()
	e1, _ := s.Add(keyPunct(t, 1))
	e2, _ := s.Add(keyPunct(t, 2))
	if s.Get(e1.PID) != e1 || s.Get(e2.PID) != e2 {
		t.Fatal("Get broken")
	}
	if !s.Remove(e1.PID) {
		t.Error("Remove existing should be true")
	}
	if s.Remove(e1.PID) {
		t.Error("double Remove should be false")
	}
	if s.Get(e1.PID) != nil {
		t.Error("removed entry still gettable")
	}
	if s.Len() != 1 || s.Entries()[0] != e2 {
		t.Error("remaining entries wrong")
	}
	// PIDs must not be reused after removal.
	e3, _ := s.Add(keyPunct(t, 3))
	if e3.PID <= e2.PID {
		t.Errorf("pid reuse: %d after %d", e3.PID, e2.PID)
	}
}

func TestUnindexedAndPropagable(t *testing.T) {
	s := NewSet()
	e1, _ := s.Add(keyPunct(t, 1))
	e2, _ := s.Add(keyPunct(t, 2))
	if got := s.Unindexed(); len(got) != 2 {
		t.Fatalf("Unindexed = %d entries", len(got))
	}
	s.IncCount(e1)
	s.IncCount(e1)
	s.MarkAllIndexed()
	if got := s.Unindexed(); len(got) != 0 {
		t.Errorf("Unindexed after indexing = %d entries", len(got))
	}
	prop := s.Propagable()
	if len(prop) != 1 || prop[0] != e2 {
		t.Errorf("Propagable = %v, want only count-0 entry", prop)
	}
	// An unindexed count-0 entry must not be propagable: its count is
	// meaningless until index build has scanned the state for it.
	e3, _ := s.Add(keyPunct(t, 3))
	_ = e3
	if got := s.Propagable(); len(got) != 1 {
		t.Errorf("unindexed entry leaked into Propagable: %v", got)
	}
}

func TestVerifiedSetAcceptsDisjointAndNested(t *testing.T) {
	s := NewVerifiedSet(0)
	if _, err := s.Add(MustKeyOnly(2, 0, Const(iv(1)))); err != nil {
		t.Fatal(err)
	}
	// Disjoint constant: fine.
	if _, err := s.Add(MustKeyOnly(2, 0, Const(iv(2)))); err != nil {
		t.Errorf("disjoint constant rejected: %v", err)
	}
	// Superset range containing both earlier constants: fine.
	if _, err := s.Add(MustKeyOnly(2, 0, MustRange(iv(0), iv(10)))); err != nil {
		t.Errorf("containing range rejected: %v", err)
	}
}

func TestVerifiedSetRejectsPartialOverlap(t *testing.T) {
	s := NewVerifiedSet(0)
	if _, err := s.Add(MustKeyOnly(2, 0, MustRange(iv(0), iv(10)))); err != nil {
		t.Fatal(err)
	}
	// [5..20] overlaps [0..10] without containing it: violates §2.2.
	if _, err := s.Add(MustKeyOnly(2, 0, MustRange(iv(5), iv(20)))); err == nil {
		t.Error("partially overlapping punctuation accepted")
	}
	if s.Len() != 1 {
		t.Errorf("failed Add mutated the set: len=%d", s.Len())
	}
}

func TestVerifiedSetAttrOutOfRange(t *testing.T) {
	s := NewVerifiedSet(5)
	if _, err := s.Add(keyPunct(t, 1)); err == nil {
		t.Error("attr beyond punctuation width should error")
	}
}

func TestNewVerifiedSetNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewVerifiedSet(-1)
}

func TestSetString(t *testing.T) {
	s := NewSet()
	s.Add(keyPunct(t, 1))
	if str := s.String(); str == "" || str == "{}" {
		t.Errorf("Set.String() = %q", str)
	}
}
