package raft

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func entriesFrom(start uint64, terms ...uint64) []Entry {
	out := make([]Entry, len(terms))
	for i, t := range terms {
		out[i] = Entry{Index: start + uint64(i), Term: t}
	}
	return out
}

func TestLogAppendAndQuery(t *testing.T) {
	l := newLog()
	if l.lastIndex() != 0 || l.lastTerm() != 0 {
		t.Fatalf("empty log: last=%d term=%d", l.lastIndex(), l.lastTerm())
	}
	l.append(entriesFrom(1, 1, 1, 2)...)
	if l.lastIndex() != 3 || l.lastTerm() != 2 {
		t.Fatalf("last=%d term=%d", l.lastIndex(), l.lastTerm())
	}
	if tm, ok := l.term(2); !ok || tm != 1 {
		t.Fatalf("term(2) = %d,%v", tm, ok)
	}
	if _, ok := l.term(4); ok {
		t.Fatal("term(4) should be out of range")
	}
	if !l.matchTerm(0, 0) {
		t.Fatal("origin must match (0,0)")
	}
	if l.matchTerm(0, 1) {
		t.Fatal("origin must not match term 1")
	}
}

func TestLogAppendNonContiguousPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l := newLog()
	l.append(Entry{Index: 5, Term: 1})
}

func TestLogTruncate(t *testing.T) {
	l := newLog()
	l.append(entriesFrom(1, 1, 1, 2, 2)...)
	l.truncateFrom(3)
	if l.lastIndex() != 2 {
		t.Fatalf("lastIndex = %d, want 2", l.lastIndex())
	}
	l.truncateFrom(10) // beyond end: no-op
	if l.lastIndex() != 2 {
		t.Fatalf("lastIndex = %d after no-op truncate", l.lastIndex())
	}
}

func TestLogSlice(t *testing.T) {
	l := newLog()
	l.append(entriesFrom(1, 1, 2, 3, 4, 5)...)
	s := l.slice(2, 4)
	if len(s) != 3 || s[0].Index != 2 || s[2].Index != 4 {
		t.Fatalf("slice = %+v", s)
	}
	if got := l.slice(4, 2); got != nil {
		t.Fatalf("inverted slice = %+v", got)
	}
	// Clamping.
	s = l.slice(0, 99)
	if len(s) != 5 {
		t.Fatalf("clamped slice len = %d", len(s))
	}
}

// Property: for any sequence of appends and truncates, the log indices
// remain contiguous from 1 to lastIndex and term queries agree with what
// was appended.
func TestLogInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l := newLog()
		shadow := map[uint64]uint64{} // index -> term, source of truth
		term := uint64(1)
		for op := 0; op < 300; op++ {
			switch r.Intn(10) {
			case 0, 1, 2, 3, 4, 5: // append
				if r.Intn(5) == 0 {
					term++
				}
				idx := l.lastIndex() + 1
				l.append(Entry{Index: idx, Term: term})
				shadow[idx] = term
			case 6, 7: // truncate
				if l.lastIndex() > 0 {
					from := 1 + uint64(r.Intn(int(l.lastIndex())))
					l.truncateFrom(from)
					for i := from; i <= uint64(len(shadow))+64; i++ {
						delete(shadow, i)
					}
				}
			case 8, 9: // verify
				for i := uint64(1); i <= l.lastIndex(); i++ {
					tm, ok := l.term(i)
					if !ok || tm != shadow[i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
