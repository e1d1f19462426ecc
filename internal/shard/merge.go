package shard

import (
	"context"
	"fmt"

	"github.com/probdb/topkclean/internal/quality"
	"github.com/probdb/topkclean/internal/topkq"
	"github.com/probdb/topkclean/internal/uncertain"
)

// This file is the merge coordinator: it presents one epoch's shard
// snapshots as a single global rank source (topkq.Source), which the one
// PSR kernel, the three semantics and TP read exactly as they read an
// unsharded database. The range invariant makes the merge trivial — no
// heap, no k-way comparison: the global real order is shard 0's reals,
// then shard 1's, ..., and the global null order is the directory's
// global group order. The source is pulled lazily, so when Lemma 2
// terminates the scan inside shard s, the cursors of shards s+1..N-1 are
// never even opened — the early-termination isolation the per-shard scan
// counters prove in tests.

// Result is the sharded engine's answer bundle, mirroring the unsharded
// engine's Result surface the daemon serves.
type Result struct {
	K          int
	Threshold  float64
	Version    uint64
	UKRanks    []topkq.RankedAnswer
	PTK        []topkq.ScoredAnswer
	GlobalTopK []topkq.ScoredAnswer
	Quality    float64
}

// answers is the memoized threshold-independent evaluation of one epoch.
type answers struct {
	version uint64
	src     *mergeSource
	info    *topkq.RankInfo
	uk      []topkq.RankedAnswer
	gtk     []topkq.ScoredAnswer
	quality float64
	err     error
}

// mergeSource is the N-shard rank source over one epoch. It keeps the
// prefix it has pulled, so the passes after the PSR scan (semantics, TP)
// re-read that prefix instead of pulling again, and each pull is charged
// to the owning shard's cumulative scan counter exactly once. A shard's
// count includes the one extra pull (its first null) that proves its
// reals are exhausted; shards the scan never reaches stay at zero.
//
// Pulls are not synchronized: one pass extends the prefix at a time
// (evalAt holds qmu, and other passes own their source). Reads of the
// pulled prefix are safe from any number of goroutines.
type mergeSource struct {
	shards []*shardHandle
	e      *epoch
	ts     []*uncertain.Tuple
	gs     []int
	cur    uncertain.Cursor
	s      int  // shard whose reals are being pulled; len(snaps) in the null phase
	open   bool // cur is positioned in shard s
	nullAt int  // next directory entry of the null phase
}

// merge returns a fresh source over epoch e.
func (c *Cluster) merge(e *epoch) *mergeSource {
	return &mergeSource{shards: c.shards, e: e, ts: make([]*uncertain.Tuple, 0, 256), gs: make([]int, 0, 256)}
}

func (m *mergeSource) Built() bool    { return true }
func (m *mergeSource) NumGroups() int { return m.e.m }
func (m *mergeSource) NumTuples() int { return m.e.n }

// Group returns the shard-local x-tuple holding global group g.
func (m *mergeSource) Group(g int) (*uncertain.XTuple, error) {
	if g < 0 || g >= len(m.e.entries) {
		return nil, fmt.Errorf("global group %d of %d: %w", g, len(m.e.entries), uncertain.ErrBadGroupIndex)
	}
	en := m.e.entries[g]
	return m.e.snaps[en.shard].Group(int(en.local))
}

// RankRun returns the pulled prefix from pos on, first pulling one more
// alternative when pos is the end of the prefix.
func (m *mergeSource) RankRun(pos int) ([]*uncertain.Tuple, []int) {
	if pos == len(m.ts) {
		if t, g, ok := m.pull(); ok {
			m.ts = append(m.ts, t)
			m.gs = append(m.gs, g)
		}
	}
	if pos < 0 || pos >= len(m.ts) {
		return nil, nil
	}
	return m.ts[pos:], m.gs[pos:]
}

// pull returns the next alternative of the merged order and its global
// group, charging it to its shard.
func (m *mergeSource) pull() (*uncertain.Tuple, int, bool) {
	e, shards := m.e, m.shards
	for m.s < len(e.snaps) {
		if !m.open {
			m.cur = e.snaps[m.s].CursorAt(0)
			m.open = true
		}
		t := m.cur.Next()
		if t != nil {
			shards[m.s].scanned.Add(1)
		}
		if t == nil || t.Null {
			m.s, m.open = m.s+1, false // this shard's reals are done
			continue
		}
		return t, int(e.perShard[m.s][t.Group]), true
	}
	for m.nullAt < len(e.entries) {
		en := e.entries[m.nullAt]
		gi := m.nullAt
		m.nullAt++
		nt := e.snaps[en.shard].Groups()[en.local].NullTuple()
		if nt == nil {
			continue // group's alternatives sum to 1; no null event
		}
		shards[en.shard].scanned.Add(1)
		return nt, gi, true
	}
	return nil, 0, false
}

// evalAt returns the memoized evaluation of epoch e, computing it on
// first use. Single-flight under qmu: concurrent first queries for one
// version compute the scan exactly once.
func (c *Cluster) evalAt(ctx context.Context, e *epoch) (*answers, error) {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	if c.ans != nil && c.ans.version == e.version {
		if c.ans.err != nil {
			return nil, c.ans.err
		}
		return c.ans, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	a := &answers{version: e.version, src: c.merge(e)}
	a.info, a.err = topkq.RankProbabilities(a.src, c.cfg.K)
	if a.err == nil {
		a.uk, a.err = topkq.UKRanks(a.src, a.info)
	}
	if a.err == nil {
		a.gtk = topkq.GlobalTopK(a.src, a.info)
		var ev *quality.Evaluation
		ev, a.err = quality.TPFromInfo(a.src, a.info)
		if a.err == nil {
			a.quality = ev.S
		}
	}
	c.ans = a
	if a.err != nil {
		return nil, a.err
	}
	return a, nil
}

// Answers evaluates all three top-k semantics plus the quality at the
// configured threshold, from one merged scan of one pinned epoch.
func (c *Cluster) Answers(ctx context.Context) (*Result, error) {
	return c.AnswersThreshold(ctx, c.cfg.Threshold)
}

// AnswersThreshold is Answers with an explicit PT-k threshold for this
// call; only the cheap threshold scan differs between calls.
func (c *Cluster) AnswersThreshold(ctx context.Context, threshold float64) (*Result, error) {
	e := c.epoch.Load()
	if e == nil {
		return nil, uncertain.ErrNotBuilt
	}
	a, err := c.evalAt(ctx, e)
	if err != nil {
		return nil, err
	}
	return &Result{
		K:          c.cfg.K,
		Threshold:  threshold,
		Version:    e.version,
		UKRanks:    a.uk,
		PTK:        topkq.PTK(a.src, a.info, threshold),
		GlobalTopK: a.gtk,
		Quality:    a.quality,
	}, nil
}

// QualityAtVersion returns the PWS-quality of a top-k query for an
// explicit k, with the cluster version it was computed against. The
// configured k hits the memoized evaluation; other k run a fresh (rho-
// free) merged scan.
func (c *Cluster) QualityAtVersion(ctx context.Context, k int) (float64, uint64, error) {
	e := c.epoch.Load()
	if e == nil {
		return 0, 0, uncertain.ErrNotBuilt
	}
	if k == c.cfg.K {
		a, err := c.evalAt(ctx, e)
		if err != nil {
			return 0, 0, err
		}
		return a.quality, e.version, nil
	}
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	src := c.merge(e)
	info, err := topkq.TopKProbabilities(src, k)
	if err != nil {
		return 0, 0, err
	}
	ev, err := quality.TPFromInfo(src, info)
	if err != nil {
		return 0, 0, err
	}
	return ev.S, e.version, nil
}

// ShardStat is one shard's serving counters, exposed through the
// daemon's /stats.
type ShardStat struct {
	Shard   int    `json:"shard"`
	Version uint64 `json:"version"` // shard-local database version
	Groups  int    `json:"groups"`  // content groups (sentinel excluded)
	Tuples  int    `json:"tuples"`  // alternatives (sentinel excluded)
	Scanned uint64 `json:"scanned"` // cumulative merge-scan pulls
	Lag     int    `json:"lag"`     // journal records since last checkpoint
}

// Stats reports per-shard counters for the current epoch. It takes the
// writer lock briefly: the store handles are cleared by Close.
func (c *Cluster) Stats() []ShardStat {
	e := c.epoch.Load()
	if e == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ShardStat, len(e.snaps))
	for i, snap := range e.snaps {
		st := ShardStat{
			Shard:   i,
			Version: snap.Version(),
			Groups:  snap.NumGroups() - 1,
			Tuples:  snap.NumTuples() - 1,
			Scanned: c.shards[i].scanned.Load(),
		}
		if sdb := c.shards[i].sdb; sdb != nil {
			st.Lag, _ = sdb.SinceCheckpoint()
		}
		out[i] = st
	}
	return out
}
