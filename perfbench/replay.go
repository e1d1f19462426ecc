package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	topkclean "github.com/probdb/topkclean"
	"github.com/probdb/topkclean/internal/cleaning"
	"github.com/probdb/topkclean/internal/quality"
	"github.com/probdb/topkclean/internal/replica"
	"github.com/probdb/topkclean/internal/shard"
	"github.com/probdb/topkclean/internal/store"
	"github.com/probdb/topkclean/internal/topkq"
	"github.com/probdb/topkclean/internal/uncertain"
)

// counts are the replay's per-layer work counters. They must repeat
// exactly between two replays of one seed.
type counts struct {
	MemoLookups, MemoHits                 int
	PureHits, StableGroups                int
	FullPasses, Resumes, ResumeFallbacks  int
	Positions, Rebuilds                   int
	TPCalls, TPSkips                      int
	Checkpoints, Polls, PollRecords       int
	ShardScanned, ShardsOpened, ShardVers int
	Requests                              int
	TopKRequests, BodyBytes               int
	WatermarkDepth                        float64
}

// replay runs a workload's op stream sequentially in schedule order, with
// one client and no timers, through two instances: "A" goes through the
// public Engine (or the shard Cluster) and the store, replica and encode
// layers the daemon uses; "B" makes the engine's own calls directly —
// Snapshot, DirtySince, topkq.Resume or a full pass, quality.TPFromInfo,
// the three semantics, then the encode — so each lower layer gets its own
// span. Both must answer bit-identically at every version.
type replay struct {
	w   workload
	tr  *tracer
	c   counts
	dir string
	ctx context.Context

	// Instance A.
	sdb *store.DB
	eng *topkclean.Engine
	clu *shard.Cluster
	rep *replica.Replica

	// Instance B.
	bdb  *uncertain.Database
	memo map[int]*bEntry

	shardScanned []uint64
	shardVersion uint64
	compared     map[uint64]bool
	scans        []scanEvent // positions scanned per PSR pass, for the stationarity check
	aTopK        []time.Duration
}

type scanEvent struct {
	due       time.Duration
	positions int
}

// bEntry and bState mirror the Engine's per-k memo slot.
type bEntry struct {
	st      *bState
	version uint64
}

type bState struct {
	info    *topkq.RankInfo
	eval    *quality.Evaluation
	full    bool
	ansDone bool
	uk      []topkq.RankedAnswer
	gtk     []topkq.ScoredAnswer
}

func newReplay(ctx context.Context, w workload, s *stream, dir string, traced bool) (*replay, error) {
	r := &replay{w: w, tr: newTracer(traced), dir: dir, ctx: ctx,
		memo: map[int]*bEntry{}, compared: map[uint64]bool{}}
	adb, err := loadCSV(s.csv)
	if err != nil {
		return nil, err
	}
	if r.bdb, err = loadCSV(s.csv); err != nil {
		return nil, err
	}
	switch {
	case w.shards > 1:
		r.clu, err = shard.FromDatabase(adb, shard.Config{Shards: w.shards, K: defaultK, Threshold: defaultThreshold,
			Rank: adb.Rank(), Backend: "file", Path: filepath.Join(dir, "a"),
			StoreOpts: []store.Option{store.WithCheckpointEvery(checkpointEvery)}})
		if err != nil {
			return nil, err
		}
		r.shardScanned = make([]uint64, w.shards)
		r.shardStats()
	case w.durable:
		b, err := store.OpenBackend("file", filepath.Join(dir, "a"))
		if err != nil {
			return nil, err
		}
		// Checkpoints are taken, and timed, by the replay itself.
		if r.sdb, err = store.Create(b, adb, store.WithCheckpointEvery(0)); err != nil {
			return nil, err
		}
		if w.follower {
			rb, err := store.OpenBackendReadOnly("file", filepath.Join(dir, "a"))
			if err != nil {
				return nil, err
			}
			if r.rep, err = replica.Open(rb, uncertain.ByFirstAttr); err != nil {
				return nil, err
			}
		}
	}
	if r.clu == nil {
		r.eng, err = topkclean.New(adb, topkclean.WithK(defaultK), topkclean.WithPTKThreshold(defaultThreshold), topkclean.WithSeed(engineSeed))
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *replay) close() {
	if r.rep != nil {
		r.rep.Close()
	}
	if r.sdb != nil {
		r.sdb.Close()
	}
	if r.clu != nil {
		r.clu.Close()
	}
}

// run replays the prewarm requests, then the schedule's commits and reads
// merged by due time (a commit first on a tie).
func (r *replay) run(reads []read, commits []commit) error {
	for _, k := range prewarmKs(r.w) {
		if err := r.quality(read{kind: kindQuality, k: k, due: -1}); err != nil {
			return err
		}
	}
	ci := 0
	for i := range reads {
		for ci < len(commits) && commits[ci].due <= reads[i].due {
			if err := r.commit(&commits[ci]); err != nil {
				return err
			}
			ci++
		}
		if err := r.read(&reads[i]); err != nil {
			return err
		}
	}
	for ; ci < len(commits); ci++ {
		if err := r.commit(&commits[ci]); err != nil {
			return err
		}
	}
	return nil
}

func (r *replay) commit(c *commit) error {
	r.tr.req++
	root := r.tr.begin("a.commit")
	var err error
	switch {
	case r.clu != nil:
		sp := r.tr.begin("shard.batch")
		err = r.clu.Batch(func(b *shard.Batch) error { return applyOps(b, c.ops) })
		r.tr.end(sp)
	case r.sdb != nil:
		sp := r.tr.begin("store.batch")
		err = r.sdb.Batch(func(b *store.Batch) error { return applyOps(b, c.ops) })
		r.tr.end(sp)
		if err == nil {
			if n, _ := r.sdb.SinceCheckpoint(); n >= checkpointEvery {
				sp := r.tr.begin("store.checkpoint")
				err = r.sdb.Checkpoint()
				r.tr.end(sp)
				r.c.Checkpoints++
			}
		}
	}
	r.tr.end(root)
	if err != nil {
		return fmt.Errorf("instance A, commit to version %d: %w", c.version, err)
	}
	if r.rep != nil {
		sp := r.tr.begin("replica.poll")
		n, err := r.rep.Poll()
		r.tr.end(sp)
		if err != nil {
			return fmt.Errorf("replica poll: %w", err)
		}
		r.c.Polls++
		r.c.PollRecords += n
	}
	root = r.tr.begin("b.commit")
	sp := r.tr.begin("uncertain.batch")
	err = r.bdb.Batch(func(b *uncertain.Batch) error { return applyOps(b, c.ops) })
	r.tr.end(sp)
	r.tr.end(root)
	if err != nil {
		return fmt.Errorf("instance B, commit to version %d: %w", c.version, err)
	}
	return nil
}

func (r *replay) read(rd *read) error {
	r.c.Requests++
	switch rd.kind {
	case kindTopK:
		return r.topk(rd)
	case kindQuality:
		return r.quality(*rd)
	default:
		return r.plan(rd)
	}
}

func (r *replay) topk(rd *read) error {
	r.tr.req++
	r.c.TopKRequests++
	root := r.tr.begin("a.topk")
	var res *topkclean.Result
	var err error
	if r.clu != nil {
		sp := r.tr.begin("shard.answers")
		var sr *shard.Result
		sr, err = r.clu.AnswersThreshold(r.ctx, rd.threshold)
		r.tr.end(sp)
		if err == nil {
			res = &topkclean.Result{K: sr.K, Threshold: sr.Threshold, Version: sr.Version,
				UKRanks: sr.UKRanks, PTK: sr.PTK, GlobalTopK: sr.GlobalTopK, Quality: sr.Quality}
		}
	} else {
		sp := r.tr.begin("topkclean.answers")
		res, err = r.eng.AnswersThreshold(r.ctx, rd.threshold)
		r.tr.end(sp)
	}
	if err != nil {
		return err
	}
	sp := r.tr.begin("a.encode")
	aBody, err := encodeTopK(res)
	r.tr.end(sp)
	r.tr.end(root)
	if err != nil {
		return err
	}
	if root >= 0 {
		r.aTopK = append(r.aTopK, r.tr.spans[root].end-r.tr.spans[root].start)
	}
	if r.clu != nil && res.Version != r.shardVersion {
		r.shardStats()
	}
	r.c.BodyBytes += len(aBody)

	root = r.tr.begin("b.topk")
	st, snap, err := r.state(defaultK, true, rd.due)
	if err != nil {
		r.tr.end(root)
		return err
	}
	if !st.ansDone {
		sp := r.tr.begin("topkq.ukranks")
		st.uk, err = topkq.UKRanks(snap, st.info)
		r.tr.end(sp)
		if err != nil {
			r.tr.end(root)
			return err
		}
		sp = r.tr.begin("topkq.globaltopk")
		st.gtk = topkq.GlobalTopK(snap, st.info)
		r.tr.end(sp)
		st.ansDone = true
	}
	sp = r.tr.begin("topkq.ptk")
	ptk := topkq.PTK(snap, st.info, rd.threshold)
	r.tr.end(sp)
	sp = r.tr.begin("topkcleand.encode")
	bBody, err := encodeTopK(&topkclean.Result{K: defaultK, Threshold: rd.threshold, Version: snap.Version(),
		UKRanks: st.uk, PTK: ptk, GlobalTopK: st.gtk, Quality: st.eval.S})
	r.tr.end(sp)
	r.tr.end(root)
	if err != nil {
		return err
	}
	if !bytes.Equal(aBody, bBody) {
		return fmt.Errorf("replay instances disagree on /topk at version %d threshold %g", res.Version, rd.threshold)
	}
	r.compared[res.Version] = true
	return nil
}

func (r *replay) quality(rd read) error {
	r.tr.req++
	root := r.tr.begin("a.quality")
	var q float64
	var v uint64
	var err error
	if r.clu != nil {
		sp := r.tr.begin("shard.quality_at")
		q, v, err = r.clu.QualityAtVersion(r.ctx, rd.k)
		r.tr.end(sp)
	} else {
		sp := r.tr.begin("topkclean.quality_at")
		q, v, err = r.eng.QualityAtVersion(r.ctx, rd.k)
		r.tr.end(sp)
	}
	r.tr.end(root)
	if err != nil {
		return err
	}
	root = r.tr.begin("b.quality")
	st, snap, err := r.state(rd.k, false, rd.due)
	r.tr.end(root)
	if err != nil {
		return err
	}
	if math.Float64bits(st.eval.S) != math.Float64bits(q) || snap.Version() != v {
		return fmt.Errorf("replay instances disagree on quality at k=%d: %v@%d vs %v@%d", rd.k, q, v, st.eval.S, snap.Version())
	}
	r.compared[v] = true
	return nil
}

func (r *replay) plan(rd *read) error {
	if r.eng == nil {
		return fmt.Errorf("/plan is not served on sharded databases")
	}
	r.tr.req++
	root := r.tr.begin("a.plan")
	spec := planSpec(r.eng.DB().Snapshot())
	sp := r.tr.begin("cleaning.context")
	cctx, err := r.eng.CleaningContext(r.ctx, spec, rd.budget)
	r.tr.end(sp)
	if err != nil {
		r.tr.end(root)
		return err
	}
	planner, err := topkclean.LookupPlanner(rd.planner)
	if err != nil {
		r.tr.end(root)
		return err
	}
	sp = r.tr.begin("cleaning.plan")
	aPlan, err := planner.Plan(r.ctx, cctx)
	r.tr.end(sp)
	r.tr.end(root)
	if err != nil {
		return err
	}
	root = r.tr.begin("b.plan")
	st, snap, err := r.state(defaultK, false, rd.due)
	if err != nil {
		r.tr.end(root)
		return err
	}
	bctx := &cleaning.Context{DB: snap, K: defaultK, Eval: st.eval, Spec: spec, Budget: rd.budget, Version: snap.Version()}
	bPlan, err := planner.Plan(r.ctx, bctx)
	r.tr.end(root)
	if err != nil {
		return err
	}
	if fmt.Sprint(planToWire(aPlan)) != fmt.Sprint(planToWire(bPlan)) || cctx.Version != bctx.Version {
		return fmt.Errorf("replay instances disagree on the %s plan at version %d", rd.planner, cctx.Version)
	}
	r.compared[cctx.Version] = true
	return nil
}

// state is instance B's copy of Engine.state: the memoized per-k PSR pass
// and TP evaluation, migrated across versions from the dirty-rank
// watermark, with a span around every lower-layer call.
func (r *replay) state(k int, needFull bool, due time.Duration) (*bState, *uncertain.Database, error) {
	ent := r.memo[k]
	if ent == nil {
		ent = &bEntry{}
		r.memo[k] = ent
	}
	r.c.MemoLookups++
	sp := r.tr.begin("uncertain.snapshot")
	snap := r.bdb.Snapshot()
	r.tr.end(sp)
	version := snap.Version()
	migrated := false
	if ent.st != nil && ent.version != version {
		r.migrate(ent, snap, version, due)
		migrated = true
	}
	if ent.st != nil && (ent.st.full || !needFull) {
		if !migrated {
			r.c.MemoHits++
		}
		return ent.st, snap, nil
	}
	sp = r.tr.begin("topkq.full_pass")
	var info *topkq.RankInfo
	var err error
	if needFull {
		info, err = topkq.RankProbabilities(snap, k)
	} else {
		info, err = topkq.TopKProbabilities(snap, k)
	}
	r.tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	r.c.FullPasses++
	r.c.Positions += info.Processed
	r.c.Rebuilds += info.Rebuilds
	r.scans = append(r.scans, scanEvent{due, info.Processed})
	if ent.st != nil {
		ent.st.info = info
		ent.st.full = true
		return ent.st, snap, nil
	}
	sp = r.tr.begin("quality.tp")
	ev, err := quality.TPFromInfo(snap, info)
	r.tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	r.c.TPCalls++
	ent.st = &bState{info: info, eval: ev, full: needFull}
	ent.version = version
	return ent.st, snap, nil
}

// migrate is instance B's copy of the Engine's kEntry.migrate.
func (r *replay) migrate(ent *bEntry, snap *uncertain.Database, version uint64, due time.Duration) {
	defer func() { ent.version = version }()
	sp := r.tr.begin("uncertain.dirty_since")
	wm, ok := snap.DirtySince(ent.version)
	r.tr.end(sp)
	if !ok {
		r.c.ResumeFallbacks++
		ent.st = nil
		return
	}
	prior := ent.st.info
	if prior.Processed > 0 {
		r.c.WatermarkDepth += math.Min(float64(wm), float64(prior.Processed)) / float64(prior.Processed)
	}
	sp = r.tr.begin("topkq.resume")
	info, err := topkq.Resume(snap, prior, wm)
	r.tr.end(sp)
	r.c.Resumes++
	if err != nil {
		r.c.ResumeFallbacks++
		ent.st = nil
		return
	}
	r.c.Rebuilds += info.Rebuilds
	pureHit := wm >= prior.Processed && prior.Processed < prior.N
	scanned := 0
	if !pureHit {
		scanned = info.Processed - min(max(wm, 0), info.Processed)
	}
	r.c.Positions += scanned
	r.scans = append(r.scans, scanEvent{due, scanned})
	old := ent.st.eval
	var ev *quality.Evaluation
	if pureHit {
		r.c.PureHits++
	}
	if pureHit && snap.GroupIndicesStableSince(ent.version) {
		r.c.StableGroups++
		r.c.TPSkips++
		gain := old.GroupGain
		if len(gain) != snap.NumGroups() {
			gain = make([]float64, snap.NumGroups())
			copy(gain, old.GroupGain)
		}
		ev = &quality.Evaluation{S: old.S, Omega: old.Omega, GroupGain: gain, Info: info}
	} else {
		sp = r.tr.begin("quality.tp")
		ev, err = quality.TPFromInfo(snap, info)
		r.tr.end(sp)
		r.c.TPCalls++
		if err != nil {
			ent.st = nil
			return
		}
	}
	ent.st = &bState{info: info, eval: ev, full: info.HasRho()}
}

// shardStats reads the cluster's cumulative per-shard scan counters when
// instance A answers a new version.
func (r *replay) shardStats() {
	st := r.clu.Stats()
	vers := r.clu.Version()
	if r.shardVersion != 0 {
		r.c.ShardVers++
	}
	for i, s := range st {
		if i >= len(r.shardScanned) {
			break
		}
		if r.shardVersion != 0 && s.Scanned > r.shardScanned[i] {
			r.c.ShardScanned += int(s.Scanned - r.shardScanned[i])
			r.c.ShardsOpened++
		}
		r.shardScanned[i] = s.Scanned
	}
	r.shardVersion = vers
}

// storeOpen times opening a copy of instance A's final store directory.
func (r *replay) storeOpen() (time.Duration, error) {
	if !r.w.durable {
		return 0, nil
	}
	src, dst := filepath.Join(r.dir, "a"), filepath.Join(r.dir, "open-copy")
	if err := copyTree(src, dst); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dst)
	start := time.Now()
	if r.clu != nil {
		c, err := shard.Open(shard.Config{Shards: r.w.shards, K: defaultK, Threshold: defaultThreshold,
			Backend: "file", Path: dst, StoreOpts: []store.Option{store.WithCheckpointEvery(checkpointEvery)}})
		took := time.Since(start)
		if err != nil {
			return 0, err
		}
		return took, c.Close()
	}
	b, err := store.OpenBackend("file", dst)
	if err != nil {
		return 0, err
	}
	db, err := store.Open(b, uncertain.ByFirstAttr, store.WithCheckpointEvery(checkpointEvery))
	took := time.Since(start)
	if err != nil {
		return 0, err
	}
	return took, db.Close()
}

// copyTree copies a store directory, skipping its lock files.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if filepath.Ext(path) == ".lock" {
			return nil
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// stationarityGap compares the mean positions scanned per PSR pass over
// the first and the last third of the timed window. A workload without
// scans in the window (read_hot answers from the memo) is trivially
// stationary.
func (r *replay) stationarityGap(ph phases) float64 {
	third := ph.timed / 3
	var first, last []float64
	for _, e := range r.scans {
		switch {
		case e.due < ph.warm: // prewarm and warm-up
		case e.due < ph.warm+third:
			first = append(first, float64(e.positions))
		case e.due >= ph.warm+2*third:
			last = append(last, float64(e.positions))
		}
	}
	a, b := mean(first), mean(last)
	if a == 0 && b == 0 {
		return 0
	}
	return math.Abs(a-b) / math.Max(a, b)
}

// prewarmKs are the query sizes memoized before the schedule starts, so
// that quality_sweep's timed window sees the per-k memo in steady state.
func prewarmKs(w workload) []int {
	if w.sweepRate == 0 {
		return nil
	}
	ks := make([]int, maxSweepK)
	for i := range ks {
		ks[i] = i + 1
	}
	return ks
}
