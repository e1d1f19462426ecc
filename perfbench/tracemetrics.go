package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// traceMetrics replays the run's op stream twice — traced, then untraced —
// checks that both replays counted the same work, writes the spans out,
// and derives the per-layer metrics (adding the scraped ones from rr).
func traceMetrics(ctx context.Context, cfg *config, s *stream, rr *realResult, e2e map[string]float64) (map[string]float64, bool, error) {
	reads := s.readsUntil(cfg.ph.total())
	commits := s.commitsUntil(cfg.ph.total())
	runOnce := func(traced bool) (*replay, time.Duration, error) {
		dir := filepath.Join(cfg.dir, fmt.Sprintf("replay-%v", traced))
		r, err := newReplay(ctx, cfg.w, s, dir, traced)
		if err != nil {
			return nil, 0, err
		}
		defer r.close()
		start := time.Now()
		err = r.run(reads, commits)
		took := time.Since(start)
		if err != nil {
			return nil, 0, err
		}
		return r, took, nil
	}
	traced, tracedTook, err := runOnce(true)
	if err != nil {
		return nil, false, fmt.Errorf("traced replay: %w", err)
	}
	openTook, err := traced.storeOpen()
	if err != nil {
		return nil, false, fmt.Errorf("store open: %w", err)
	}
	plain, plainTook, err := runOnce(false)
	if err != nil {
		return nil, false, fmt.Errorf("untraced replay: %w", err)
	}
	ok := true
	if traced.c != plain.c {
		ok = false
		logf("replay counts differ between two replays of one seed:\n  %+v\n  %+v", traced.c, plain.c)
	}
	if err := traced.tr.write(tracePath(cfg)); err != nil {
		return nil, false, err
	}
	os.RemoveAll(filepath.Join(cfg.dir, "replay-true"))
	os.RemoveAll(filepath.Join(cfg.dir, "replay-false"))

	lt := traced.tr.selfTimes()
	c := traced.c
	m := map[string]float64{}
	own := func(name string) float64 { return lt[name].meanOwnMS() }
	total := func(name string) time.Duration {
		if l := lt[name]; l != nil {
			return l.total
		}
		return 0
	}
	cnt := func(name string) int {
		if l := lt[name]; l != nil {
			return l.count
		}
		return 0
	}

	// topkcleand: encode share of the daemon's CPU over the timed window,
	// counting one encode per /topk request the coalescer did not share.
	topkServed, versionsServed := rr.topkServed()
	coalesced := float64(rr.statsAfter.Coalesced - rr.statsBefore.Coalesced)
	encodes := float64(topkServed) - coalesced
	m["topkcleand.encode_ms"] = own("topkcleand.encode")
	m["topkcleand.encode_cpu_share"] = ratio(encodes*own("topkcleand.encode"), ms(rr.cpu))
	m["topkcleand.body_bytes"] = ratio(float64(c.BodyBytes), float64(c.TopKRequests))
	m["topkcleand.repeat_key_share"] = rr.repeatShare
	m["topkcleand.coalesced_ratio"] = ratio(coalesced, float64(rr.leaderTopK()))
	if len(traced.aTopK) > 0 {
		m["topkcleand.http_ms"] = e2e["topk_p50_ms"] - ms(percentile(traced.aTopK, 0.5))
	}

	m["topkclean.answers_ms"] = own("topkclean.answers")
	m["topkclean.quality_at_ms"] = own("topkclean.quality_at")
	m["topkclean.memo_hit_ratio"] = ratio(float64(c.MemoHits), float64(c.MemoLookups))
	m["topkclean.memo_entries"] = float64(len(traced.memo))

	m["uncertain.snapshot_ms"] = own("uncertain.snapshot")
	m["uncertain.batch_ms"] = own("uncertain.batch")
	m["uncertain.watermark_depth"] = ratio(c.WatermarkDepth, float64(c.Resumes))
	m["uncertain.group_stable_ratio"] = ratio(float64(c.StableGroups), float64(c.PureHits))

	m["topkq.full_pass_ms"] = own("topkq.full_pass")
	m["topkq.full_passes"] = float64(c.FullPasses)
	m["topkq.resume_ms"] = own("topkq.resume")
	m["topkq.resumes"] = float64(c.Resumes)
	m["topkq.resume_fallbacks"] = float64(c.ResumeFallbacks)
	m["topkq.positions_scanned"] = float64(c.Positions)
	m["topkq.rebuilds"] = float64(c.Rebuilds)
	m["topkq.ukranks_ms"] = own("topkq.ukranks")
	m["topkq.globaltopk_ms"] = own("topkq.globaltopk")
	m["topkq.globaltopk_cpu_share"] = ratio(float64(versionsServed)*own("topkq.globaltopk"), ms(rr.cpu))
	m["topkq.ptk_ms"] = own("topkq.ptk")

	m["quality.tp_ms"] = own("quality.tp")
	m["quality.tp_calls"] = float64(c.TPCalls)
	m["quality.tp_skip_ratio"] = ratio(float64(c.TPSkips), float64(c.Resumes-c.ResumeFallbacks))

	m["cleaning.context_ms"] = own("cleaning.context")
	m["cleaning.plan_ms"] = own("cleaning.plan")

	m["store.batch_ms"] = own("store.batch")
	m["store.checkpoint_ms"] = own("store.checkpoint")
	m["store.checkpoints"] = float64(c.Checkpoints)
	if rr.commitBytes > 0 && rr.writeBytes > 0 {
		m["store.bytes_per_commit"] = float64(rr.writeBytes) / float64(len(rr.commits))
		m["store.write_amp"] = float64(rr.writeBytes) / float64(rr.commitBytes)
	}
	m["store.open_ms"] = ms(openTook)
	m["store.dir_growth_bytes"] = float64(rr.storeGrowth)
	if ck0, ck1 := rr.statsBefore.CheckpointVer, rr.statsAfter.CheckpointVer; ck1 > ck0 {
		// /stats shows only the latest checkpoint's version; one is taken
		// every checkpointEvery commits.
		m["store.scraped_checkpoints"] = math.Ceil(float64(ck1-ck0) / checkpointEvery)
	}
	m["store.scraped_wal_records"] = float64(rr.statsAfter.WALRecords)

	m["shard.batch_ms"] = own("shard.batch")
	m["shard.answers_ms"] = own("shard.answers")
	m["shard.scanned_per_version"] = ratio(float64(c.ShardScanned), float64(c.ShardVers))
	m["shard.shards_opened"] = ratio(float64(c.ShardsOpened), float64(c.ShardVers))
	m["shard.scraped_scanned_per_version"] = rr.scrapedScannedPerVersion()

	m["replica.poll_ms"] = own("replica.poll")
	m["replica.records_per_poll"] = ratio(float64(c.PollRecords), float64(c.Polls))
	if rep := rr.followerStats.Replication; rep != nil {
		m["replica.bytes_behind"] = float64(rep.BytesBehind)
		m["replica.resyncs"] = float64(rep.Resyncs)
	}

	m["loadgen.late_p99_ms"] = ms(rr.lateP99())
	m["trace.overhead_frac"] = ratio(float64(tracedTook-plainTook), float64(plainTook))
	// Engine/Cluster time that instance B's decomposed calls do not cover.
	engine := total("topkclean.answers") + total("topkclean.quality_at") + total("shard.answers") + total("shard.quality_at")
	m["trace.unaccounted_frac"] = ratio(float64(engine-traced.tr.decomposed()), float64(engine))
	gap := traced.stationarityGap(cfg.ph)
	m["gen.stationarity_gap"] = gap
	if gap > stationarityBound {
		ok = false
		logf("op stream is not stationary: positions scanned per pass differ by %.0f%% between the first and last third", 100*gap)
	}
	m["replay.versions_compared"] = float64(len(traced.compared))
	logf("replay: traced %.2fs, untraced %.2fs, %d spans, %d requests (%d instance-A calls)",
		tracedTook.Seconds(), plainTook.Seconds(), len(traced.tr.spans), c.Requests, cnt("a.topk")+cnt("a.quality")+cnt("a.plan"))
	return m, ok, nil
}
