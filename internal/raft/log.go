package raft

import "fmt"

// raftLog stores the replicated log in memory. The log is never compacted:
// entries[i] is the entry at index i+1, and index 0 with term 0 is the log
// origin. A replica that falls far behind is migrated through a checkpoint
// in the data store (paper §3.2.3), not caught up by a snapshot.
type raftLog struct {
	entries []Entry
}

func newLog() *raftLog { return &raftLog{} }

// lastIndex returns the index of the last entry.
func (l *raftLog) lastIndex() uint64 { return uint64(len(l.entries)) }

// term returns the term of the entry at index i, or ok=false if i is
// beyond lastIndex.
func (l *raftLog) term(i uint64) (uint64, bool) {
	if i == 0 {
		return 0, true
	}
	if i > l.lastIndex() {
		return 0, false
	}
	return l.entries[i-1].Term, true
}

// lastTerm returns the term of the last entry (0 if the log is empty).
func (l *raftLog) lastTerm() uint64 {
	t, _ := l.term(l.lastIndex())
	return t
}

// entry returns the entry at index i.
func (l *raftLog) entry(i uint64) (Entry, bool) {
	if i < 1 || i > l.lastIndex() {
		return Entry{}, false
	}
	return l.entries[i-1], true
}

// slice returns entries in [lo, hi] inclusive, copied.
func (l *raftLog) slice(lo, hi uint64) []Entry {
	if lo < 1 {
		lo = 1
	}
	if hi > l.lastIndex() {
		hi = l.lastIndex()
	}
	if lo > hi {
		return nil
	}
	out := make([]Entry, hi-lo+1)
	copy(out, l.entries[lo-1:hi])
	return out
}

// append adds entries at the tail. Entries must already carry correct
// Index/Term values continuing the log.
func (l *raftLog) append(ents ...Entry) {
	for _, e := range ents {
		if e.Index != l.lastIndex()+1 {
			panic(fmt.Sprintf("raft: non-contiguous append: entry %d after last %d", e.Index, l.lastIndex()))
		}
		l.entries = append(l.entries, e)
	}
}

// truncateFrom removes all entries with index >= i.
func (l *raftLog) truncateFrom(i uint64) {
	if i < 1 {
		panic("raft: truncating the log origin")
	}
	if i > l.lastIndex() {
		return
	}
	l.entries = l.entries[:i-1]
}

// matchTerm reports whether the entry at index i has term t. Index 0 with
// term 0 always matches (the log origin).
func (l *raftLog) matchTerm(i, t uint64) bool {
	term, ok := l.term(i)
	return ok && term == t
}
