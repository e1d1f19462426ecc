// Package shard is the in-process sharded serving engine: a database
// range-partitioned by rank order across N shard databases, a router that
// keeps the partition invariant under mutations, and a coordinator that
// merges the per-shard rank orders into one logical rank source and
// answers top-k queries from it — bit-identically to the unsharded engine.
//
// # The range invariant
//
// Every real alternative carries a global sequence stamp (gseq), assigned
// once at its first insert and carried along by every rebalance move. The
// global rank key of an alternative is the pair (score, gseq), ordered by
// score descending, gseq ascending — exactly the unsharded total order
// (ranksAbove), because stamps are assigned in the same arrival order the
// unsharded database would use. Shards are ranges of this key order:
//
//	min key of shard s  >  every key of shard s+1   (for non-empty shards)
//
// Each shard database stores its alternatives with the gseq as the local
// tie-break stamp (uncertain.AddXTupleSeq / InsertXTupleSeq), so a shard's
// local rank order is the global order restricted to the shard, and the
// concatenation shard 0, shard 1, ... shard N-1 — reals first, then the
// null alternatives in global group-index order — is exactly the global
// rank order. The coordinator presents that concatenation as a
// topkq.Source — global group indices attached — to the same PSR kernel,
// semantics and TP pass the unsharded engine runs over its database, so
// every answer is bit-identical (see the differential battery).
//
// # Rebalancing
//
// Only inserts can break the invariant: scores never change after insert
// (Reweight changes probabilities only), so a mutation moves no existing
// key. When a new group's top key routes to shard j but some of its keys
// fall below lower shards' keys, the router pulls those lower groups *up*
// into shard j (delete + re-insert with preserved stamps) until shard j's
// new min key is again above shard j+1's max. Moves preserve answers
// exactly: stamps travel with the group, and the re-materialized null
// probability is a deterministic Kahan sum over the same probabilities in
// the same order, hence bit-identical.
//
// # Sentinels
//
// Every shard database holds one hidden absent x-tuple (the sentinel), so
// a shard is never empty — the underlying database forbids emptiness —
// and a group can always be moved out. Sentinels are invisible to the
// directory, the merge, and all counts. The sentinel's group name (and
// its null alternative's ID) are reserved; inserts using them are
// rejected.
package shard

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"github.com/probdb/topkclean/internal/store"
	"github.com/probdb/topkclean/internal/topkq"
	"github.com/probdb/topkclean/internal/uncertain"
)

// sentinelName is the reserved group name of the hidden absent x-tuple
// every shard database carries. The leading NUL keeps it out of any
// reasonable user namespace; inserts under it (or its null's ID) are
// rejected explicitly.
const sentinelName = "\x00shard-sentinel"

// sentinelNullID is the ID of the sentinel's materialized null.
const sentinelNullID = "null:" + sentinelName

// ErrReservedName is returned when an insert uses the shard layer's
// reserved sentinel group name or tuple ID.
var ErrReservedName = errors.New("shard: name reserved for the shard sentinel")

// ErrPoisoned wraps every internal shard write failure: the cluster's
// in-memory state may be ahead of a shard journal, so further writes are
// refused while reads keep serving the last published epoch.
var ErrPoisoned = errors.New("shard: cluster write failed; cluster is read-only")

// Config configures a cluster.
type Config struct {
	// Shards is the number of range partitions (>= 1). A 1-shard cluster
	// is the degenerate case used by differential tests.
	Shards int

	// K is the query size shared by Answers and Quality.
	K int

	// Threshold is the default PT-k probability threshold for Answers.
	Threshold float64

	// Rank scores tuples; nil means uncertain.ByFirstAttr. FromDatabase
	// ignores it and inherits the source database's ranking function.
	Rank uncertain.RankFunc

	// Backend names a store driver ("file", "mem"); empty means no
	// persistence. With a backend, shard i journals to Path/shard-i and
	// the cluster directory to Path/meta.
	Backend string

	// Path is the base path for the per-shard stores and the meta journal.
	Path string

	// StoreOpts are passed to every per-shard store.Create/Open.
	StoreOpts []store.Option
}

// shardHandle is one shard: its live database, the optional journaling
// store wrapping it, and the cumulative merge-scan pull counter.
type shardHandle struct {
	db      *uncertain.Database
	sdb     *store.DB // nil without persistence
	scanned atomic.Uint64
}

// live returns the shard's live database (the store's, when journaled).
func (s *shardHandle) live() *uncertain.Database {
	if s.sdb != nil {
		return s.sdb.DB()
	}
	return s.db
}

// Cluster is a range-sharded database plus the router and coordinator
// over it. Mutations serialize on the cluster's writer lock and publish
// one immutable epoch per commit; queries read pinned epochs and run
// fully concurrently with writers, exactly like the unsharded engine.
type Cluster struct {
	cfg  Config
	rank uncertain.RankFunc

	mu       sync.Mutex // writer lock: mutations, Close
	shards   []*shardHandle
	dir      *directory
	ids      map[string]struct{} // every live tuple ID, cluster-wide
	nextGseq int
	version  uint64
	built    bool
	closed   bool
	poisoned error

	meta      store.Backend // nil without persistence
	metaSince int           // records since the last meta checkpoint

	epoch atomic.Pointer[epoch]

	qmu sync.Mutex // single-flight guard for the memoized evaluation
	ans *answers

	stage *uncertain.Database // staging database before Build; nil after

	// splits, when non-nil, replaces the balanced partition rule with
	// explicit cumulative cut targets (test hook: the fuzz battery drives
	// every valid range split through the merge, not just the balanced
	// one).
	splits []int
}

// New returns an empty cluster in staging state: add x-tuples with
// AddXTuple/AddAbsentXTuple, then call Build.
func New(cfg Config) (*Cluster, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: %d shards: need at least 1", cfg.Shards)
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("k = %d: %w", cfg.K, topkq.ErrBadK)
	}
	if cfg.Rank == nil {
		cfg.Rank = uncertain.ByFirstAttr
	}
	return &Cluster{cfg: cfg, rank: cfg.Rank, stage: uncertain.New()}, nil
}

// AddXTuple stages an x-tuple before Build, with the staging validation
// (and errors) of the unsharded database.
func (c *Cluster) AddXTuple(name string, tuples ...uncertain.Tuple) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.built {
		return uncertain.ErrAlreadyBuilt
	}
	if err := checkReserved(name, tuples); err != nil {
		return err
	}
	return c.stage.AddXTuple(name, tuples...)
}

// AddAbsentXTuple stages an absent x-tuple before Build.
func (c *Cluster) AddAbsentXTuple(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.built {
		return uncertain.ErrAlreadyBuilt
	}
	if name == sentinelName {
		return fmt.Errorf("%w: %q", ErrReservedName, name)
	}
	return c.stage.AddAbsentXTuple(name)
}

// checkReserved rejects the sentinel namespace at every insert entrance.
func checkReserved(name string, tuples []uncertain.Tuple) error {
	if name == sentinelName {
		return fmt.Errorf("%w: %q", ErrReservedName, name)
	}
	for i := range tuples {
		if tuples[i].ID == sentinelNullID {
			return fmt.Errorf("%w: %q", ErrReservedName, tuples[i].ID)
		}
	}
	return nil
}

// Build validates and scores the staged x-tuples — with exactly the
// unsharded Build's semantics and errors — then partitions the resulting
// rank order into the configured number of shards and, with a backend
// configured, creates the per-shard stores and the meta journal.
func (c *Cluster) Build() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.built {
		return uncertain.ErrAlreadyBuilt
	}
	if err := c.stage.Build(c.rank); err != nil {
		return err
	}
	err := c.buildFromLocked(c.stage, 1)
	c.stage = nil
	return err
}

// FromDatabase builds a cluster holding the same logical database as an
// already-built (live or snapshot) source: same groups, same
// probabilities, same rank order — every answer bit-identical. The
// cluster inherits the source's ranking function and version; the source
// is only read.
func FromDatabase(db *uncertain.Database, cfg Config) (*Cluster, error) {
	if db == nil || !db.Built() {
		return nil, uncertain.ErrNotBuilt
	}
	cfg.Rank = db.Rank()
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.buildFromLocked(db, db.Version()); err != nil {
		return nil, err
	}
	c.stage = nil
	return c, nil
}

// buildFromLocked partitions a built source database into the cluster's
// shards. The global sequence stamp of every real alternative is its rank
// position in the source — any strictly order-preserving stamping gives
// the same tie-breaks, and rank positions are already materialized.
func (c *Cluster) buildFromLocked(src *uncertain.Database, version uint64) error {
	n := c.cfg.Shards
	m := src.NumGroups()
	nReal := src.NumRealTuples()

	for _, x := range src.Groups() {
		if x.Name == sentinelName {
			return fmt.Errorf("%w: %q", ErrReservedName, x.Name)
		}
		for _, t := range x.Tuples {
			if t.ID == sentinelNullID {
				return fmt.Errorf("%w: %q", ErrReservedName, t.ID)
			}
		}
	}

	// Walk the rank order once: per-group top position (= partition order,
	// since keys order by position) and per-alternative positions.
	type ginfo struct {
		topPos int
		gseqs  []int
	}
	gs := make([]ginfo, m)
	for g := range gs {
		gs[g].topPos = -1
	}
	var order []int // groups with real alternatives, by descending top key
	posOf := make(map[*uncertain.Tuple]int, src.NumTuples())
	cur := src.CursorAt(0)
	for pos := 0; ; pos++ {
		t := cur.Next()
		if t == nil {
			break
		}
		posOf[t] = pos
		if !t.Null && gs[t.Group].topPos < 0 {
			gs[t.Group].topPos = pos
			order = append(order, t.Group)
		}
	}
	for g, x := range src.Groups() {
		for _, t := range x.RealTuples() {
			gs[g].gseqs = append(gs[g].gseqs, posOf[t])
		}
	}

	// Greedy range partition balanced by real-alternative count. A shard
	// closes only at a valid cut: every key already assigned must rank
	// above the next group's top key (positions compare as keys), or the
	// next group would straddle the boundary.
	assign := make([]int, m)
	for g := range assign {
		assign[g] = n - 1 // groups with no reals sit in the bottom shard
	}
	s, cum, runningMax := 0, 0, -1
	for _, g := range order {
		if s < n-1 && cum > 0 && c.cutHere(s, cum, nReal, n) && runningMax < gs[g].topPos {
			s++
		}
		assign[g] = s
		for _, p := range gs[g].gseqs {
			if p > runningMax {
				runningMax = p
			}
		}
		cum += len(gs[g].gseqs)
	}

	// Stage and build the shard databases: sentinel first (local index 0),
	// then this shard's groups in global index order.
	dbs := make([]*uncertain.Database, n)
	for i := range dbs {
		dbs[i] = uncertain.New()
		if err := dbs[i].AddAbsentXTuple(sentinelName); err != nil {
			return err
		}
	}
	dir := newDirectory(n)
	for g, x := range src.Groups() {
		sh := assign[g]
		if len(gs[g].gseqs) == 0 {
			if err := dbs[sh].AddAbsentXTuple(x.Name); err != nil {
				return err
			}
		} else {
			reals := x.RealTuples()
			specs := make([]uncertain.Tuple, len(reals))
			for i, t := range reals {
				specs[i] = uncertain.Tuple{ID: t.ID, Attrs: append([]float64(nil), t.Attrs...), Prob: t.Prob}
			}
			if err := dbs[sh].AddXTupleSeq(x.Name, gs[g].gseqs, specs...); err != nil {
				return err
			}
		}
		dir.append(&entry{shard: sh, gseqs: gs[g].gseqs})
	}
	for i := range dbs {
		if err := dbs[i].Build(c.rank); err != nil {
			return err
		}
	}

	c.shards = make([]*shardHandle, n)
	for i := range dbs {
		c.shards[i] = &shardHandle{db: dbs[i]}
	}
	c.dir = dir
	c.ids = make(map[string]struct{}, src.NumTuples())
	for _, x := range src.Groups() {
		for _, t := range x.Tuples {
			c.ids[t.ID] = struct{}{}
		}
	}
	c.nextGseq = src.NumTuples()
	c.version = version

	if c.cfg.Backend != "" {
		if err := c.createStoresLocked(); err != nil {
			c.closeStoresLocked()
			c.shards = nil
			return err
		}
	}
	c.built = true
	c.publishLocked()
	return nil
}

// cutHere decides whether shard s is full after cum real alternatives.
// The default balances by equal real-alternative share; splits installs
// arbitrary cumulative targets instead.
func (c *Cluster) cutHere(s, cum, nReal, n int) bool {
	if c.splits != nil {
		return s < len(c.splits) && cum >= c.splits[s]
	}
	return cum*n >= nReal*(s+1)
}

// shardPath returns the backend path of shard i.
func (c *Cluster) shardPath(i int) string {
	return filepath.Join(c.cfg.Path, fmt.Sprintf("shard-%d", i))
}

// metaPath returns the backend path of the cluster's meta journal.
func (c *Cluster) metaPath() string {
	return filepath.Join(c.cfg.Path, "meta")
}

// Close flushes the meta journal (final checkpoint) and closes every
// per-shard store. A clean Close is what makes the multi-journal layout
// reopen without torn-commit ambiguity; see Open.
func (c *Cluster) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	var first error
	if c.meta != nil && c.poisoned == nil && c.metaSince > 0 {
		if err := c.metaCheckpointLocked(); err != nil && first == nil {
			first = err
		}
	}
	if err := c.closeStoresLocked(); err != nil && first == nil {
		first = err
	}
	return first
}

// closeStoresLocked closes the meta backend and every shard store,
// returning the first error.
func (c *Cluster) closeStoresLocked() error {
	var first error
	if c.meta != nil {
		if err := c.meta.Close(); err != nil && first == nil {
			first = err
		}
		c.meta = nil
	}
	for _, sh := range c.shards {
		if sh != nil && sh.sdb != nil {
			if err := sh.sdb.Close(); err != nil && first == nil {
				first = err
			}
			sh.sdb = nil
		}
	}
	return first
}

// K returns the configured query size.
func (c *Cluster) K() int { return c.cfg.K }

// Threshold returns the configured default PT-k threshold.
func (c *Cluster) Threshold() float64 { return c.cfg.Threshold }

// Version returns the cluster version of the current published epoch.
func (c *Cluster) Version() uint64 {
	if e := c.epoch.Load(); e != nil {
		return e.version
	}
	return 0
}

// NumGroups returns the global x-tuple count of the current epoch.
func (c *Cluster) NumGroups() int {
	if e := c.epoch.Load(); e != nil {
		return e.m
	}
	return 0
}

// NumTuples returns the global alternative count of the current epoch.
func (c *Cluster) NumTuples() int {
	if e := c.epoch.Load(); e != nil {
		return e.n
	}
	return 0
}

// NumRealTuples returns the global real-alternative count of the current
// epoch (sentinels are absent groups, so they contribute none).
func (c *Cluster) NumRealTuples() int {
	e := c.epoch.Load()
	if e == nil {
		return 0
	}
	n := 0
	for _, snap := range e.snaps {
		n += snap.NumRealTuples()
	}
	return n
}
