package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	topkclean "github.com/probdb/topkclean"
	"github.com/probdb/topkclean/internal/replica"
	"github.com/probdb/topkclean/internal/shard"
	"github.com/probdb/topkclean/internal/store"
	"github.com/probdb/topkclean/internal/topkq"
)

// A tenant is one named database with everything serving it: the
// servingDB that answers queries and commits batches (an engine over one
// database, or a range-sharded cluster — see DESIGN.md "Sharded
// serving"), the per-tenant query coalescer, and the write mutex that
// keeps WAL order equal to commit order across /mutate and /apply.
type tenant struct {
	name    string
	db      servingDB
	cfg     tenantConfig
	coal    coalescer
	applies atomic.Int64 // per-apply rng decorrelation counter
	writeMu sync.Mutex   // serializes journaled writes; queries never take it
	created time.Time
}

// makeTenant wraps a servingDB as a registry entry.
func makeTenant(name string, db servingDB, cfg tenantConfig) *tenant {
	t := &tenant{name: name, db: db, cfg: cfg, created: time.Now()}
	t.coal.inflight = make(map[coalKey]*coalCall)
	return t
}

// servingDB is what serves one tenant's database. Both implementations
// produce bit-identical answers (the shard package's differential
// battery pins this), so handlers never know which one served them.
type servingDB interface {
	version() uint64 // current committed version
	k() int          // query defaults
	threshold() float64
	// answers evaluates the three top-k semantics plus quality from one
	// pinned epoch.
	answers(ctx context.Context, threshold float64) (*topkclean.Result, error)
	// qualityAt evaluates the PWS-quality at an explicit k, with the
	// version it was computed against.
	qualityAt(ctx context.Context, k int) (float64, uint64, error)
	// stats reports the size and query defaults of the current epoch;
	// with detail it adds the layer's own counters (journal lag,
	// replication, per-shard scans), which may take its writer lock.
	stats(detail bool) statsResponse
	// batch commits fn's ops as one epoch, reporting the version it
	// started from and the size after.
	batch(fn func(opSink) error) (base uint64, groups, tuples int, err error)
	durable() bool // survives restarts (its own journal, or the leader's)
	close() error  // flush and release storage (final checkpoint, replica stop)
}

// queryErrStatus classifies a query error once for every route: a k the
// database cannot answer (below 1, or above its x-tuple count) is the
// client's 400; anything else is the server's 500.
func queryErrStatus(err error) int {
	if errors.Is(err, topkq.ErrBadK) || errors.Is(err, topkq.ErrKTooLarge) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// engineDB serves one database through the library engine: a leader's
// (journaled to its store, or in memory) or a follower's replica.
type engineDB struct {
	cfg tenantConfig
	sdb *store.DB        // nil when ephemeral or on a follower
	rep *replica.Replica // non-nil on follower daemons

	mu  sync.Mutex // follower only: guards the engine rebuild below
	eng *topkclean.Engine
	gen uint64 // replica generation eng was built on
}

// newEngineDB wires the engine for a database.
func newEngineDB(db *topkclean.Database, sdb *store.DB, rep *replica.Replica, cfg tenantConfig) (*engineDB, error) {
	eng, err := cfg.newEngine(db)
	if err != nil {
		return nil, err
	}
	return &engineDB{cfg: cfg, sdb: sdb, rep: rep, eng: eng}, nil
}

func (c tenantConfig) newEngine(db *topkclean.Database) (*topkclean.Engine, error) {
	return topkclean.New(db,
		topkclean.WithK(c.K),
		topkclean.WithPTKThreshold(c.Threshold),
		topkclean.WithSeed(c.Seed))
}

// engine returns the engine to serve queries from. On a leader it is
// fixed for the tenant's lifetime. On a follower the replica's
// incremental tailing keeps the same database (and the engine's
// snapshot-keyed memoization stays warm across replicated commits), but a
// resync — the leader checkpointed past this follower — replaces the
// database wholesale; the engine is then rebuilt over the new one, keyed
// by the replica's generation. A rebuild failure keeps serving the
// previous engine (bounded staleness beats an outage) and retries on the
// next request.
func (e *engineDB) engine() *topkclean.Engine {
	if e.rep == nil {
		return e.eng
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if gen := e.rep.Generation(); gen != e.gen {
		if eng, err := e.cfg.newEngine(e.rep.DB()); err == nil {
			e.eng = eng
			e.gen = gen
		}
	}
	return e.eng
}

func (e *engineDB) version() uint64    { return e.engine().DB().Snapshot().Version() }
func (e *engineDB) k() int             { return e.engine().K() }
func (e *engineDB) threshold() float64 { return e.engine().Threshold() }
func (e *engineDB) durable() bool      { return e.sdb != nil || e.rep != nil }

func (e *engineDB) answers(ctx context.Context, threshold float64) (*topkclean.Result, error) {
	return e.engine().AnswersThreshold(ctx, threshold)
}

func (e *engineDB) qualityAt(ctx context.Context, k int) (float64, uint64, error) {
	return e.engine().QualityAtVersion(ctx, k)
}

func (e *engineDB) stats(detail bool) statsResponse {
	eng := e.engine()
	snap := eng.DB().Snapshot()
	st := statsResponse{
		Version:    snap.Version(),
		XTuples:    snap.NumGroups(),
		Tuples:     snap.NumTuples(),
		RealTuples: snap.NumRealTuples(),
		K:          eng.K(),
		Threshold:  eng.Threshold(),
		Durable:    e.durable(),
	}
	if !detail {
		return st
	}
	if e.sdb != nil {
		st.WALRecords, st.CheckpointVer = e.sdb.SinceCheckpoint()
	}
	if e.rep != nil {
		lag := e.rep.Lag()
		rj := &replicationJSON{
			AppliedVersion: e.rep.Version(),
			VersionsBehind: lag.Versions,
			BytesBehind:    lag.Bytes,
			Ready:          e.rep.Ready(),
			Resyncs:        e.rep.Resyncs(),
		}
		if err := e.rep.Err(); err != nil {
			rj.LastError = err.Error()
		}
		st.Replication = rj
	}
	return st
}

// batch commits through the store on durable tenants (journaling each
// successful op) and straight to the database otherwise. Writes reach
// only leaders, whose engine is fixed.
func (e *engineDB) batch(fn func(opSink) error) (uint64, int, int, error) {
	db := e.eng.DB()
	base := db.Version()
	var err error
	if e.sdb != nil {
		err = e.sdb.Batch(func(b *store.Batch) error { return fn(b) })
	} else {
		err = db.Batch(func(b *topkclean.Batch) error { return fn(b) })
	}
	return base, db.NumGroups(), db.NumTuples(), err
}

func (e *engineDB) close() error {
	if e.rep != nil {
		return e.rep.Close()
	}
	if e.sdb != nil {
		return e.sdb.Close()
	}
	return nil
}

// clusterDB serves a range-sharded database through its merge
// coordinator. The cluster owns its per-shard stores (leaders only:
// followers skip sharded databases).
type clusterDB struct {
	c         *shard.Cluster
	journaled bool // the cluster journals its shards under -store
}

func (d *clusterDB) version() uint64    { return d.c.Version() }
func (d *clusterDB) k() int             { return d.c.K() }
func (d *clusterDB) threshold() float64 { return d.c.Threshold() }
func (d *clusterDB) durable() bool      { return d.journaled }
func (d *clusterDB) close() error       { return d.c.Close() }

func (d *clusterDB) answers(ctx context.Context, threshold float64) (*topkclean.Result, error) {
	r, err := d.c.AnswersThreshold(ctx, threshold)
	if err != nil {
		return nil, err
	}
	return &topkclean.Result{
		K:          r.K,
		Threshold:  r.Threshold,
		Version:    r.Version,
		UKRanks:    r.UKRanks,
		PTK:        r.PTK,
		GlobalTopK: r.GlobalTopK,
		Quality:    r.Quality,
	}, nil
}

func (d *clusterDB) qualityAt(ctx context.Context, k int) (float64, uint64, error) {
	return d.c.QualityAtVersion(ctx, k)
}

func (d *clusterDB) stats(detail bool) statsResponse {
	st := statsResponse{
		Version:    d.c.Version(),
		XTuples:    d.c.NumGroups(),
		Tuples:     d.c.NumTuples(),
		RealTuples: d.c.NumRealTuples(),
		K:          d.c.K(),
		Threshold:  d.c.Threshold(),
		Durable:    d.journaled,
	}
	if detail {
		st.Shards = d.c.Stats()
	}
	return st
}

// batch commits through the cluster's router. Its batch has the same
// prefix-on-failure, one-epoch-per-request semantics as the engine's
// (the shard package's differential battery pins the parity, error texts
// included), with the router splitting ops across shards.
func (d *clusterDB) batch(fn func(opSink) error) (uint64, int, int, error) {
	base := d.c.Version()
	err := d.c.Batch(func(b *shard.Batch) error { return fn(b) })
	return base, d.c.NumGroups(), d.c.NumTuples(), err
}

// tenantConfig is the per-database serving configuration, persisted as
// tenant.json next to the journal so a restart recovers not just the data
// but the query shape (k, threshold) and the ranking function it was
// being served with. Rank names a function ("first" | "sum"; empty means
// "first") — it must match what the database was built with, and
// recovery verifies the persisted rank order against it.
type tenantConfig struct {
	K         int     `json:"k"`
	Threshold float64 `json:"threshold"`
	Seed      int64   `json:"seed"`
	Rank      string  `json:"rank,omitempty"`
	Shards    int     `json:"shards,omitempty"` // > 1: range-sharded serving
}

// rankFunc resolves the persisted ranking-function name through the
// library's shared registry (the same names the CLI's -rank flags use).
func (c tenantConfig) rankFunc() (topkclean.RankFunc, error) {
	rank, err := topkclean.RankByName(c.Rank)
	if err != nil {
		return nil, fmt.Errorf("tenant.json: %w", err)
	}
	return rank, nil
}

const tenantConfigName = "tenant.json"

// defaultDB is the database the legacy single-database routes alias to.
const defaultDB = "default"

// tenantNameRE bounds database names to path-safe tokens: they become
// directory names under -store, so no separators, no leading dot.
var tenantNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

var (
	errTenantExists  = errors.New("database already exists")
	errTenantMissing = errors.New("no such database")
	errBadName       = errors.New("database names are 1-64 chars of [A-Za-z0-9_.-], not starting with a dot")
)

// tenant looks a tenant up by name.
func (s *server) tenant(name string) (*tenant, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tenants[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", errTenantMissing, name)
	}
	return t, nil
}

// tenantList returns the tenants sorted by name.
func (s *server) tenantList() []*tenant {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// addTenant registers a freshly built database under name, persisting it
// first when the daemon has a store root. The database must be built; cfg
// zero-values fall back to the daemon defaults. The registry lock is held
// only to reserve the name and to install the finished tenant — the disk
// work (full-database wire encode + fsyncs) runs outside it, so creating
// a large database never stalls requests against existing tenants.
func (s *server) addTenant(name string, db *topkclean.Database, cfg tenantConfig) (*tenant, error) {
	if !tenantNameRE.MatchString(name) {
		return nil, errBadName
	}
	if cfg.K <= 0 {
		cfg.K = s.cfg.k
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = s.cfg.threshold
	}
	if cfg.Seed == 0 {
		cfg.Seed = s.cfg.seed
	}
	if cfg.Shards <= 0 {
		cfg.Shards = s.cfg.shards
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	s.mu.Lock()
	if _, ok := s.tenants[name]; ok || s.creating[name] {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", errTenantExists, name)
	}
	s.creating[name] = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.creating, name)
		s.mu.Unlock()
	}()

	if cfg.Shards > 1 {
		t, err := s.addShardTenant(name, db, cfg)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		s.tenants[name] = t
		s.mu.Unlock()
		return t, nil
	}

	var sdb *store.DB
	if s.cfg.storeRoot != "" {
		dir := s.tenantPath(name)
		backend, err := store.OpenBackend(s.cfg.storeBackend, dir)
		if err != nil {
			return nil, err
		}
		sdb, err = store.Create(backend, db, s.storeOptions()...)
		if err != nil {
			backend.Close()
			_ = s.dropStorage(name, 1) // best effort: the create error is what the caller sees
			return nil, err
		}
		// tenant.json lives next to the journal; only the file backend has
		// a directory to keep it in (mem tenants die with the process, so
		// there is nothing to recover a config for).
		if s.cfg.storeBackend == "file" {
			if err := writeTenantConfig(dir, cfg); err != nil {
				sdb.Close()
				_ = s.dropStorage(name, 1) // best effort: leave no half-created store a retry would trip over
				return nil, err
			}
		}
	}
	t, err := s.newTenant(name, db, sdb, nil, cfg)
	if err != nil {
		if sdb != nil {
			sdb.Close()
			_ = s.dropStorage(name, 1) // best effort: the create error is what the caller sees
		}
		return nil, err
	}
	s.mu.Lock()
	s.tenants[name] = t
	s.mu.Unlock()
	return t, nil
}

// addShardTenant splits a built database across cfg.Shards range shards
// behind a merge coordinator. With -store, the cluster journals each
// shard (plus its placement directory) under the tenant directory; the
// per-shard layout is the shard package's, not the flat single-journal
// one, so tenant.json's shards field is what recovery dispatches on.
func (s *server) addShardTenant(name string, db *topkclean.Database, cfg tenantConfig) (*tenant, error) {
	scfg := shard.Config{Shards: cfg.Shards, K: cfg.K, Threshold: cfg.Threshold, Rank: db.Rank()}
	durable := s.cfg.storeRoot != ""
	if durable {
		scfg.Backend = s.cfg.storeBackend
		scfg.Path = s.tenantPath(name)
		scfg.StoreOpts = s.storeOptions()
	}
	clu, err := shard.FromDatabase(db, scfg)
	if err != nil {
		if durable {
			_ = s.dropStorage(name, cfg.Shards) // best effort: the create error is what the caller sees
		}
		return nil, err
	}
	if durable && s.cfg.storeBackend == "file" {
		if err := writeTenantConfig(s.tenantPath(name), cfg); err != nil {
			clu.Close()
			_ = s.dropStorage(name, cfg.Shards) // best effort: the create error is what the caller sees
			return nil, err
		}
	}
	return makeTenant(name, &clusterDB{c: clu, journaled: durable}, cfg), nil
}

// tenantPath is where a tenant's journal lives: a directory for the file
// backend, an opaque process-local key for mem.
func (s *server) tenantPath(name string) string {
	return filepath.Join(s.cfg.storeRoot, name)
}

// dropStorage removes whatever a tenant's backend keeps at its path — the
// cleanup half of create failures and deletions: the whole directory on
// the file backend; on mem, the one journal of an unsharded tenant, or
// each shard journal plus the meta journal of a sharded one.
func (s *server) dropStorage(name string, shards int) error {
	dir := s.tenantPath(name)
	switch s.cfg.storeBackend {
	case "file":
		return os.RemoveAll(dir)
	case "mem":
		if shards <= 1 {
			store.DropMem(dir)
			return nil
		}
		for i := 0; i < shards; i++ {
			store.DropMem(filepath.Join(dir, fmt.Sprintf("shard-%d", i)))
		}
		store.DropMem(filepath.Join(dir, "meta"))
	}
	return nil
}

// newTenant wires the engine and serving state for a database.
func (s *server) newTenant(name string, db *topkclean.Database, sdb *store.DB, rep *replica.Replica, cfg tenantConfig) (*tenant, error) {
	edb, err := newEngineDB(db, sdb, rep, cfg)
	if err != nil {
		return nil, err
	}
	return makeTenant(name, edb, cfg), nil
}

// recoverTenants opens every database persisted under the store root —
// the startup path after a restart or a crash. Directories that do not
// hold a database (or fail to recover) are reported and skipped, so one
// corrupt tenant cannot take the whole daemon down.
func (s *server) recoverTenants(logf func(format string, args ...any)) error {
	entries, err := os.ReadDir(s.cfg.storeRoot)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return os.MkdirAll(s.cfg.storeRoot, 0o755)
		}
		return err
	}
	for _, e := range entries {
		if !e.IsDir() || !tenantNameRE.MatchString(e.Name()) {
			continue
		}
		name := e.Name()
		dir := filepath.Join(s.cfg.storeRoot, name)
		cfg := readTenantConfig(dir, tenantConfig{K: s.cfg.k, Threshold: s.cfg.threshold, Seed: s.cfg.seed})
		rank, err := cfg.rankFunc()
		if err != nil {
			logf("recover %s: %v (skipped)", name, err)
			continue
		}
		if cfg.Shards > 1 {
			// Sharded layout: per-shard journals plus the placement
			// directory, recovered and cross-checked by the shard package.
			clu, err := shard.Open(shard.Config{
				Shards: cfg.Shards, K: cfg.K, Threshold: cfg.Threshold, Rank: rank,
				Backend: s.cfg.storeBackend, Path: dir, StoreOpts: s.storeOptions(),
			})
			if err != nil {
				logf("recover %s: %v (skipped)", name, err)
				continue
			}
			s.mu.Lock()
			s.tenants[name] = makeTenant(name, &clusterDB{c: clu, journaled: true}, cfg)
			s.mu.Unlock()
			logf("recovered %s at version %d (%d x-tuples, k=%d threshold=%g, %d shards)",
				name, clu.Version(), clu.NumGroups(), cfg.K, cfg.Threshold, cfg.Shards)
			continue
		}
		backend, err := store.OpenBackend(s.cfg.storeBackend, dir)
		if err != nil {
			logf("recover %s: %v (skipped)", name, err)
			continue
		}
		sdb, err := store.Open(backend, rank, s.storeOptions()...)
		if err != nil {
			backend.Close()
			logf("recover %s: %v (skipped)", name, err)
			continue
		}
		t, err := s.newTenant(name, sdb.DB(), sdb, nil, cfg)
		if err != nil {
			sdb.Close()
			logf("recover %s: %v (skipped)", name, err)
			continue
		}
		s.mu.Lock()
		s.tenants[name] = t
		s.mu.Unlock()
		logf("recovered %s at version %d (%d x-tuples, k=%d threshold=%g)",
			name, sdb.DB().Version(), sdb.DB().NumGroups(), cfg.K, cfg.Threshold)
	}
	return nil
}

// recoverFollowers is the follower-mode startup path: it opens every
// database under the store root read-only, syncs each replica to the
// journal tail, and starts the tailing loops. Unlike recoverTenants it
// creates nothing and repairs nothing — a follower serves exactly what the
// leader persisted, so an empty root is an error, not an invitation.
func (s *server) recoverFollowers(logf func(format string, args ...any)) error {
	entries, err := os.ReadDir(s.cfg.storeRoot)
	if err != nil {
		return fmt.Errorf("follower: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || !tenantNameRE.MatchString(e.Name()) {
			continue
		}
		s.followTenant(e.Name(), logf)
	}
	if len(s.tenantList()) == 0 {
		return fmt.Errorf("follower: %s holds no databases to follow (is it a leader's -store root?)", s.cfg.storeRoot)
	}
	return nil
}

// followTenant attaches one of the leader's databases as a read-only
// replica. Failures are logged and skipped (the directory may be a
// half-created tenant the leader is still writing; the rescan loop will
// retry it).
func (s *server) followTenant(name string, logf func(format string, args ...any)) {
	dir := filepath.Join(s.cfg.storeRoot, name)
	cfg := readTenantConfig(dir, tenantConfig{K: s.cfg.k, Threshold: s.cfg.threshold, Seed: s.cfg.seed})
	if cfg.Shards > 1 {
		logf("follow %s: sharded databases cannot be followed yet (skipped)", name)
		return
	}
	rank, err := cfg.rankFunc()
	if err != nil {
		logf("follow %s: %v (skipped)", name, err)
		return
	}
	backend, err := store.OpenBackendReadOnly(s.cfg.storeBackend, dir)
	if err != nil {
		logf("follow %s: %v (skipped)", name, err)
		return
	}
	rep, err := replica.Open(backend, rank, replica.WithPollInterval(s.cfg.replicaPoll))
	if err != nil {
		backend.Close()
		logf("follow %s: %v (skipped)", name, err)
		return
	}
	t, err := s.newTenant(name, rep.DB(), nil, rep, cfg)
	if err != nil {
		rep.Close()
		logf("follow %s: %v (skipped)", name, err)
		return
	}
	rep.Start()
	s.mu.Lock()
	if _, ok := s.tenants[name]; ok || s.draining.Load() {
		// Raced with another attach, or the daemon is shutting down: this
		// replica has no owner to close it later, so close it now.
		s.mu.Unlock()
		rep.Close()
		return
	}
	s.tenants[name] = t
	s.mu.Unlock()
	logf("following %s at version %d (%d x-tuples, k=%d threshold=%g)",
		name, rep.Version(), rep.DB().NumGroups(), cfg.K, cfg.Threshold)
}

// rescanFollowers picks up databases the leader created after this
// follower started — the dynamic half of follower mode. Directories
// already being followed are skipped; new ones attach exactly like the
// startup scan.
func (s *server) rescanFollowers(logf func(format string, args ...any)) {
	entries, err := os.ReadDir(s.cfg.storeRoot)
	if err != nil {
		logf("follower rescan: %v", err)
		return
	}
	for _, e := range entries {
		if !e.IsDir() || !tenantNameRE.MatchString(e.Name()) {
			continue
		}
		name := e.Name()
		s.mu.RLock()
		_, known := s.tenants[name]
		s.mu.RUnlock()
		if known {
			continue
		}
		s.followTenant(name, logf)
	}
}

// followerRescanLoop runs rescanFollowers on a ticker until ctx is
// cancelled (daemon shutdown).
func (s *server) followerRescanLoop(ctx context.Context, every time.Duration, logf func(format string, args ...any)) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			s.rescanFollowers(logf)
		}
	}
}

// deleteTenant unregisters a database and, when durable, deletes its
// persisted state. The default database is refused: the legacy
// single-database routes alias to it. So is a database with followers
// attached (file backend; flock-based, so best-effort and same-machine
// only): unlinking a journal a replica is tailing would strand it. The
// name stays reserved (via s.creating) until the directory removal
// finishes, so a concurrent create of the same name cannot write a fresh
// journal into a directory RemoveAll is still unlinking.
func (s *server) deleteTenant(name string) error {
	if name == defaultDB {
		return fmt.Errorf("the %q database cannot be deleted (legacy routes alias to it)", defaultDB)
	}
	// The follower probe stats and flocks journal files, so it must not
	// run under s.mu (lockscope): peek under RLock, probe unlocked. A
	// follower attaching in the gap before the write lock below loses the
	// same race it always could — the probe is best-effort by design.
	s.mu.RLock()
	peek, attached := s.tenants[name]
	s.mu.RUnlock()
	if attached && peek.db.durable() && s.cfg.storeBackend == "file" && store.ReadersAttached(s.tenantPath(name)) {
		return fmt.Errorf("database %q has followers attached; detach them before deleting", name)
	}
	s.mu.Lock()
	t, ok := s.tenants[name]
	if ok {
		delete(s.tenants, name)
		s.creating[name] = true // reserve against concurrent re-creation
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", errTenantMissing, name)
	}
	defer func() {
		s.mu.Lock()
		delete(s.creating, name)
		s.mu.Unlock()
	}()
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	// The storage is about to be removed, so a failed final checkpoint
	// inside close is irrelevant — removal is the intent.
	_ = t.db.close()
	if !t.db.durable() {
		return nil
	}
	if err := s.dropStorage(name, t.cfg.Shards); err != nil {
		// The tenant is gone from serving but its directory survived;
		// it will resurrect on the next restart. Surface that.
		return fmt.Errorf("unregistered, but deleting its storage failed (it will be recovered on restart): %w", err)
	}
	return nil
}

// closeStores flushes every durable tenant (final checkpoint + sync) and
// stops follower replicas — the graceful-drain counterpart of
// recoverTenants/recoverFollowers.
func (s *server) closeStores(logf func(format string, args ...any)) {
	s.draining.Store(true) // stop the follower rescan from attaching more
	for _, t := range s.tenantList() {
		t.writeMu.Lock()
		if err := t.db.close(); err != nil {
			logf("close %s: %v", t.name, err)
		}
		t.writeMu.Unlock()
	}
}

func (s *server) storeOptions() []store.Option {
	opts := []store.Option{store.WithCheckpointEvery(s.cfg.checkpointEvery)}
	if !s.cfg.fsync {
		opts = append(opts, store.WithNoFsync())
	}
	return opts
}

func writeTenantConfig(dir string, cfg tenantConfig) error {
	data, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, tenantConfigName), data, 0o644)
}

func readTenantConfig(dir string, fallback tenantConfig) tenantConfig {
	data, err := os.ReadFile(filepath.Join(dir, tenantConfigName))
	if err != nil {
		return fallback
	}
	cfg := fallback
	if json.Unmarshal(data, &cfg) != nil {
		return fallback
	}
	if cfg.K <= 0 {
		cfg.K = fallback.K
	}
	return cfg
}
