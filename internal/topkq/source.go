package topkq

import (
	"iter"

	"github.com/probdb/topkclean/internal/uncertain"
)

// Source is an ordered rank source: the alternatives of one logical
// database in descending global rank order, each paired with its global
// group (x-tuple) index — the index space in which the PSR recurrence
// keeps one event slot per x-tuple. A source can be read again from any
// position it has already delivered, so the query semantics and the TP
// quality pass re-walk the prefix the PSR pass scanned.
//
// *uncertain.Database is the one-shard source: a tuple's Group field is
// its global group. The shard package's epoch merge is the N-shard
// source: it pulls lazily from the shard cursors and keeps the pulled
// prefix for the passes that follow.
type Source interface {
	Built() bool
	NumGroups() int
	NumTuples() int

	// RankRun returns the alternatives at rank positions pos, pos+1, ...
	// up to an end of the source's choosing — at least one alternative
	// while pos < NumTuples(), none past the end — with their global
	// groups. groups is nil when every tuple's Group field is its global
	// group; otherwise it parallels the run.
	RankRun(pos int) (run []*uncertain.Tuple, groups []int)

	// Group returns the x-tuple of global group g: the identity the scan
	// checkpoints key on.
	Group(g int) (*uncertain.XTuple, error)
}

// Ranks iterates the alternatives of src at rank positions [start, end)
// in rank order, each with its global group. It reads src one run at a
// time — one interface call per run (a whole chunk of a database), a
// slice step per alternative — and never asks for a run past the last
// alternative the loop consumes, so breaking out of the loop leaves a
// lazy source unread from there on. It stops early if src ends before
// end.
func Ranks(src Source, start, end int) iter.Seq2[*uncertain.Tuple, int] {
	return func(yield func(*uncertain.Tuple, int) bool) {
		for pos := start; pos < end; {
			run, groups := src.RankRun(pos)
			if len(run) == 0 {
				return
			}
			run = run[:min(len(run), end-pos)]
			for j, t := range run {
				g := t.Group
				if groups != nil {
					g = groups[j]
				}
				if !yield(t, g) {
					return
				}
			}
			pos += len(run)
		}
	}
}
