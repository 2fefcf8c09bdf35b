package punct

import (
	"fmt"
	"testing"

	"pjoin/internal/value"
)

// Allocation micro-benchmarks for the punctuation matching hot paths:
// SetMatchAttr runs once per arriving tuple (drop-on-the-fly) and once
// per stored tuple in every purge scan; Matches runs per tuple during
// index building. None of them may allocate.

func benchSet(b *testing.B, keys, ranges int) *Set {
	b.Helper()
	s := NewKeyedSet(0, false)
	for k := 0; k < keys; k++ {
		if _, err := s.Add(MustKeyOnly(2, 0, Const(value.Int(int64(k))))); err != nil {
			b.Fatal(err)
		}
	}
	for r := 0; r < ranges; r++ {
		lo := int64(1000 + 10*r)
		p := MustKeyOnly(2, 0, MustRange(value.Int(lo), value.Int(lo+9)))
		if _, err := s.Add(p); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkSetMatchAttrConst: the keyed fast path — constant
// punctuations resolved through the per-value index. Expected: 0
// allocs/op regardless of set size.
func BenchmarkSetMatchAttrConst(b *testing.B) {
	s := benchSet(b, 512, 0)
	hit := value.Int(100)
	miss := value.Int(1 << 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.SetMatchAttr(0, hit) {
			b.Fatal("expected hit")
		}
		if s.SetMatchAttr(0, miss) {
			b.Fatal("expected miss")
		}
	}
}

// BenchmarkSetMatchAttrRange: range punctuations fall off the constant
// index onto the linear non-constant scan.
func BenchmarkSetMatchAttrRange(b *testing.B) {
	s := benchSet(b, 0, 64)
	hit := value.Int(1005)
	miss := value.Int(1 << 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.SetMatchAttr(0, hit) {
			b.Fatal("expected hit")
		}
		if s.SetMatchAttr(0, miss) {
			b.Fatal("expected miss")
		}
	}
}

// BenchmarkPunctMatches: full-width pattern matching, the per-tuple
// predicate of index building (Fig. 3).
func BenchmarkPunctMatches(b *testing.B) {
	p := MustKeyOnly(4, 0, Const(value.Int(7)))
	hit := []value.Value{value.Int(7), value.Str("x"), value.Int(1), value.Str("y")}
	miss := []value.Value{value.Int(8), value.Str("x"), value.Int(1), value.Str("y")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !p.Matches(hit) {
			b.Fatal("expected match")
		}
		if p.Matches(miss) {
			b.Fatal("expected no match")
		}
	}
}

// TestSetMatchAttrDoesNotAllocate enforces the zero-allocation claim on
// the per-tuple matching paths.
func TestSetMatchAttrDoesNotAllocate(t *testing.T) {
	s := NewKeyedSet(0, false)
	for k := 0; k < 64; k++ {
		if _, err := s.Add(MustKeyOnly(2, 0, Const(value.Int(int64(k))))); err != nil {
			t.Fatal(err)
		}
	}
	v := value.Int(33)
	allocs := testing.AllocsPerRun(100, func() {
		if !s.SetMatchAttr(0, v) {
			t.Fatal("expected hit")
		}
	})
	if allocs != 0 {
		t.Errorf("SetMatchAttr allocates %.1f objects per call, want 0", allocs)
	}
}

// BenchmarkSetAddVerified: one constant punctuation added to, and
// removed from, a verified set already holding n indexed constant
// entries — the per-punctuation bookkeeping of a join with n open
// punctuations. A
// constant is nested-or-disjoint with every pattern, so verification
// checks it against nothing and ns/op stays flat in n.
func BenchmarkSetAddVerified(b *testing.B) {
	for _, n := range []int{16, 512, 4096} {
		b.Run(fmt.Sprintf("open=%d", n), func(b *testing.B) {
			s := NewVerifiedSet(0)
			for k := 0; k < n; k++ {
				if _, err := s.Add(MustKeyOnly(2, 0, Const(value.Int(int64(k))))); err != nil {
					b.Fatal(err)
				}
			}
			// Open entries have been through index build.
			s.MarkAllIndexed()
			p := MustKeyOnly(2, 0, Const(value.Int(int64(n))))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, err := s.Add(p)
				if err != nil {
					b.Fatal(err)
				}
				s.Remove(e.PID)
			}
		})
	}
}
