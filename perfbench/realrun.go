package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

const (
	setupLaunches     = 9 // set-up is timed this many times; setup_s is the median
	recoveries        = 3 // SIGKILL + restart cycles; recover_s is the median
	keepEvery         = 8 // the oracle checks every keepEvery-th read body
	maxOracleVers     = 400
	ladderSteps       = 6
	ladderStep        = time.Second
	ladderGrowth      = 1.5
	ladderStart       = 0.25                   // the ladder starts at this share of the workload's /topk rate
	stationarityBound = 0.25                   // gen.stationarity_gap above this fails the run
	latencyLimit      = 10 * time.Millisecond  // topk_max_qps keeps p99 at or below this
	lateBound         = 250 * time.Millisecond // a run whose scheduler ran later than this at p99 has invalid latencies
	readyLimit        = 120 * time.Second
	warmDuration      = time.Second
	ladderBacklogCut  = 0.75 // lateness is judged over the last quarter of a ladder step
)

// realResult is everything the run against the real binary measured.
type realResult struct {
	setup     []time.Duration // the daemon's CPU time from launch to its first correct /topk
	setupWall []time.Duration // wall time, launch to the first correct /topk
	reads     []sample        // timed window only
	commits   []sample        // timed window only
	allReads  int
	allCommit int
	failed    int
	failures  []string

	cpu       time.Duration // daemon CPU (leader + follower) over the timed window
	peakRSSMB float64

	ladderQPS float64
	ladderRan bool

	recover []time.Duration

	statsBefore, statsAfter    stats // leader, at the timed window's edges
	followerStats              stats
	commitBytes                int // /mutate body bytes over the timed window
	oracleChecked, oraclePairs int
	oracleMismatch             int
	lastAcked                  uint64
	writeBytes                 int64 // leader's storage writes over the timed window (/proc/<pid>/io)
	storeGrowth                int64 // the store directory's byte growth over the timed window
	maxConns                   int64 // peak load-generator connections
	repeatShare                float64
}

// An edge is one reading of the daemons' /proc counters and the leader's
// /stats at an edge of the timed window.
type edge struct {
	cpu        time.Duration // leader + follower
	writeBytes int64         // leader
	storeBytes int64         // the leader's store directory
	stats      stats
}

func readEdge(leader, follower *daemon, storeRoot string) (edge, error) {
	var e edge
	var err error
	if e.cpu, err = leader.cpuTime(); err != nil {
		return e, err
	}
	if follower != nil {
		fc, err := follower.cpuTime()
		if err != nil {
			return e, err
		}
		e.cpu += fc
	}
	if e.writeBytes, err = leader.ioWriteBytes(); err != nil {
		return e, err
	}
	if storeRoot != "" {
		if e.storeBytes, err = dirBytes(storeRoot); err != nil {
			return e, err
		}
	}
	e.stats, err = scrapeStats(leader)
	return e, err
}

// topkServed counts the timed window's /topk requests and the distinct
// (daemon, version) pairs they were answered at.
func (r *realResult) topkServed() (requests, versions int) {
	seen := map[[2]uint64]bool{}
	for _, s := range r.reads {
		if s.kind != kindTopK || s.failed() {
			continue
		}
		requests++
		key := [2]uint64{0, s.version}
		if s.follower {
			key[0] = 1
		}
		if !seen[key] {
			seen[key] = true
			versions++
		}
	}
	return requests, versions
}

func (r *realResult) leaderTopK() int {
	n := 0
	for _, s := range r.reads {
		if s.kind == kindTopK && !s.follower {
			n++
		}
	}
	return n
}

// repeatKeyShare is the share of the timed window's /topk requests whose
// (daemon, version, threshold) an earlier request of the run already got.
func repeatKeyShare(reads []read, rs []sample, warm time.Duration) float64 {
	seen := map[[3]uint64]bool{}
	var repeats, n int
	for i := range rs {
		s := &rs[i]
		if s.kind != kindTopK || s.failed() {
			continue
		}
		key := [3]uint64{0, s.version, math.Float64bits(reads[i].threshold)}
		if s.follower {
			key[0] = 1
		}
		if s.due >= warm {
			n++
			if seen[key] {
				repeats++
			}
		}
		seen[key] = true
	}
	return ratio(float64(repeats), float64(n))
}

// scrapedScannedPerVersion is the daemon's own merge-scan pull count per
// committed version over the timed window, from /stats.
func (r *realResult) scrapedScannedPerVersion() float64 {
	var before, after uint64
	for _, s := range r.statsBefore.Shards {
		before += s.Scanned
	}
	for _, s := range r.statsAfter.Shards {
		after += s.Scanned
	}
	return ratio(float64(after-before), float64(r.statsAfter.Version-r.statsBefore.Version))
}

// ack checks one commit's acknowledgement against the version the op
// stream predicts for it.
func (r *realResult) ack(what string, i int, s *sample, c *commit) {
	switch {
	case s.failed():
		r.fail("%s #%d: status %d %s", what, i, s.status, s.err)
	case s.version != c.version:
		r.fail("%s #%d acknowledged version %d, op stream expects %d", what, i, s.version, c.version)
	default:
		r.lastAcked = s.version
	}
}

func (r *realResult) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// daemonArgs is the command line of the workload's leader.
func daemonArgs(w workload, dataPath, storeRoot string) []string {
	args := []string{"-data", dataPath, "-k", strconv.Itoa(defaultK),
		"-threshold", strconv.FormatFloat(defaultThreshold, 'g', -1, 64), "-seed", strconv.Itoa(engineSeed)}
	if w.durable {
		args = append(args, "-store", storeRoot, "-fsync=true", "-checkpoint-every", strconv.Itoa(checkpointEvery))
	}
	if w.shards > 1 {
		args = append(args, "-shards", strconv.Itoa(w.shards))
	}
	return args
}

func realRun(cfg *config, s *stream, ref *reference) (*realResult, error) {
	w := cfg.w
	res := &realResult{}
	dataPath := filepath.Join(cfg.dir, "data.csv")
	if err := os.WriteFile(dataPath, s.csv, 0o644); err != nil {
		return nil, err
	}
	want, err := ref.topkAt(s.baseVersion, defaultThreshold)
	if err != nil {
		return nil, err
	}

	// Set-up: launch to the first correct /topk, several times. Each launch
	// starts with the harness's garbage collected and no write-back pending,
	// so that it competes with nothing the harness did before it.
	var leader *daemon
	var storeRoot string
	for i := 0; i < setupLaunches; i++ {
		storeRoot = filepath.Join(cfg.dir, fmt.Sprintf("store-%d", i))
		runtime.GC()
		syscall.Sync()
		start := time.Now()
		d, err := startDaemon(cfg.daemonBin, filepath.Join(cfg.dir, "leader.log"), daemonArgs(w, dataPath, storeRoot)...)
		if err != nil {
			return nil, err
		}
		took, err := waitBody(d, d.url("/topk"), want, start, readyLimit)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		cpu, err := d.runTime()
		if err != nil {
			return nil, err
		}
		res.setup = append(res.setup, cpu)
		res.setupWall = append(res.setupWall, took)
		logf("set-up %d: %.3fs CPU, %.3fs wall", i, cpu.Seconds(), took.Seconds())
		if i < setupLaunches-1 {
			d.kill()
			os.RemoveAll(storeRoot)
			continue
		}
		leader = d
	}
	tg := targets{leader: "http://" + leader.addr}
	var follower *daemon
	if w.follower {
		follower, err = startDaemon(cfg.daemonBin, filepath.Join(cfg.dir, "follower.log"),
			"-follower", storeRoot, "-k", strconv.Itoa(defaultK),
			"-threshold", strconv.FormatFloat(defaultThreshold, 'g', -1, 64), "-seed", strconv.Itoa(engineSeed))
		if err != nil {
			return nil, err
		}
		if _, err := waitBody(follower, follower.url("/topk"), want, time.Now(), readyLimit); err != nil {
			return nil, fmt.Errorf("follower set-up: %w", err)
		}
		tg.follower = "http://" + follower.addr
	}

	// The open-loop run: a warm-up second, then the timed window, with the
	// daemon's CPU, /stats and store read at the window's edges.
	lg := &loadgen{workers: runtime.NumCPU()}
	reads := s.readsUntil(cfg.ph.total())
	commits := s.commitsUntil(cfg.ph.total())
	keep := func(i int) bool { return i%keepEvery == 0 || reads[i].kind != kindTopK }
	for _, k := range prewarmKs(w) {
		if status, _, err := get(fmt.Sprintf("%s/quality?k=%d", tg.leader, k)); err != nil || status != 200 {
			return nil, fmt.Errorf("prewarm /quality?k=%d: status %d %v", k, status, err)
		}
	}
	// The window's first edge is read when it is due; the second once the
	// last request due in the window has been answered, so the CPU that a
	// backlog spends after the window's end still counts.
	storeDir := ""
	if w.durable {
		storeDir = storeRoot
	}
	type edgeResult struct {
		e   edge
		err error
	}
	first := make(chan edgeResult, 1)
	t0 := time.Now().Add(20 * time.Millisecond)
	go func() {
		time.Sleep(time.Until(t0.Add(cfg.ph.warm)))
		e, err := readEdge(leader, follower, storeDir)
		first <- edgeResult{e, err}
	}()
	rs, cs := lg.run(t0, tg, reads, commits, keep)
	r0 := <-first
	e1, err := readEdge(leader, follower, storeDir)
	if r0.err != nil || err != nil {
		return nil, fmt.Errorf("scraping the timed window's edges: %v %v", r0.err, err)
	}
	e0 := r0.e
	res.cpu = e1.cpu - e0.cpu
	res.writeBytes = e1.writeBytes - e0.writeBytes
	res.storeGrowth = e1.storeBytes - e0.storeBytes
	res.statsBefore, res.statsAfter = e0.stats, e1.stats
	res.maxConns = lg.maxOpen.Load()
	if res.peakRSSMB, err = leader.peakRSSMB(); err != nil {
		return nil, err
	}
	if follower != nil {
		if res.followerStats, err = scrapeStats(follower); err != nil {
			return nil, err
		}
	}
	res.allReads, res.allCommit = len(rs), len(cs)
	res.repeatShare = repeatKeyShare(reads, rs, cfg.ph.warm)
	for i := range rs {
		if rs[i].failed() {
			res.fail("%s #%d: status %d %s", rs[i].kind, i, rs[i].status, rs[i].err)
		}
		if rs[i].due >= cfg.ph.warm {
			res.reads = append(res.reads, rs[i])
		}
	}
	for i := range cs {
		res.ack("mutate", i, &cs[i], &commits[i])
		if cs[i].due >= cfg.ph.warm {
			res.commits = append(res.commits, cs[i])
			res.commitBytes += len(commits[i].body)
		}
	}
	if len(commits) == 0 {
		res.lastAcked = s.baseVersion
	}

	if w.ladder {
		res.runLadder(cfg, s, lg, tg)
	}
	// The oracle runs after all timing, so that it does not compete for CPU.
	recovered, err := res.oracle(ref, reads, rs)
	if err != nil {
		return nil, err
	}
	if w.durable {
		if err := res.recoverLoop(cfg, recovered, leader, dataPath, storeRoot); err != nil {
			return nil, err
		}
	}
	stopAll(true)
	return res, nil
}

func (s *stream) readsUntil(end time.Duration) []read {
	i := sort.Search(len(s.reads), func(i int) bool { return s.reads[i].due >= end })
	return s.reads[:i]
}

func (s *stream) commitsUntil(end time.Duration) []commit {
	i := sort.Search(len(s.commits), func(i int) bool { return s.commits[i].due >= end })
	return s.commits[:i]
}

// oracle checks the kept bodies against the reference byte for byte, and
// follower bodies against leader bodies of the same version and
// threshold. It returns the reference /topk body at the last acknowledged
// version, which recovery must reproduce.
func (r *realResult) oracle(ref *reference, reads []read, rs []sample) ([]byte, error) {
	// Bound the reference work: check bodies at up to maxOracleVers
	// distinct versions, spread evenly over the run.
	byVer := map[uint64][]int{}
	for i := range rs {
		if rs[i].body != nil && !rs[i].failed() {
			byVer[rs[i].version] = append(byVer[rs[i].version], i)
		}
	}
	sorted := make([]uint64, 0, len(byVer))
	for v := range byVer {
		sorted = append(sorted, v)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	step := max((len(sorted)+maxOracleVers-1)/maxOracleVers, 1)
	var check []uint64
	for i := 0; i < len(sorted); i += step {
		if sorted[i] <= r.lastAcked {
			check = append(check, sorted[i])
		}
	}
	check = append(check, r.lastAcked)
	var recovered []byte
	err := ref.walk(check, func(v uint64, a *refAt) error {
		for _, i := range byVer[v] {
			rd := &reads[i]
			var want []byte
			var err error
			switch rd.kind {
			case kindTopK:
				want, err = a.topk(rd.threshold)
			case kindQuality:
				want, err = a.quality(rd.k)
			case kindPlan:
				want, err = a.plan(rd.planner, rd.budget)
			}
			if err != nil {
				return fmt.Errorf("reference %s at version %d: %w", rd.kind, v, err)
			}
			r.oracleChecked++
			if !bytes.Equal(want, rs[i].body) {
				r.oracleMismatch++
				r.fail("oracle: %s #%d at version %d differs from the reference", rd.kind, i, v)
			}
		}
		if v == r.lastAcked {
			var err error
			recovered, err = a.topk(defaultThreshold)
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	type pairKey struct {
		v   uint64
		thr float64
	}
	leaderBodies := map[pairKey][]byte{}
	for i := range rs {
		if rs[i].body != nil && !rs[i].failed() && reads[i].kind == kindTopK && !reads[i].follower {
			leaderBodies[pairKey{rs[i].version, reads[i].threshold}] = rs[i].body
		}
	}
	for i := range rs {
		if rs[i].body == nil || rs[i].failed() || !reads[i].follower {
			continue
		}
		lb, ok := leaderBodies[pairKey{rs[i].version, reads[i].threshold}]
		if !ok {
			continue
		}
		r.oraclePairs++
		if !bytes.Equal(lb, rs[i].body) {
			r.oracleMismatch++
			r.fail("oracle: follower /topk #%d at version %d differs from the leader's", i, rs[i].version)
		}
	}
	return recovered, nil
}

// runLadder raises the /topk rate step by step (the writer keeps going on
// write workloads) and records the highest step whose p99 stays within
// latencyLimit with no failures and no growing backlog.
func (r *realResult) runLadder(cfg *config, s *stream, lg *loadgen, tg targets) {
	w := cfg.w
	r.ladderRan = true
	rng := rand.New(rand.NewSource(cfg.seed*31 + 5))
	thrZipf := rand.NewZipf(rng, 1.2, 1, uint64(len(topkThresholds)-1))
	start := cfg.ph.total()
	rate := w.topkRate * ladderStart
	for step := 0; step < ladderSteps; step++ {
		n := int(rate * ladderStep.Seconds())
		reads := make([]read, n)
		for i := range reads {
			reads[i] = read{due: slot(i, rate), kind: kindTopK, threshold: topkThresholds[thrZipf.Uint64()]}
		}
		var commits []commit
		for _, c := range s.commits {
			if c.due >= start && c.due < start+ladderStep {
				c.due -= start
				commits = append(commits, c)
			}
		}
		start += ladderStep
		rs, cs := lg.run(time.Now().Add(10*time.Millisecond), targets{leader: tg.leader}, reads, commits, nil)
		var lat, lateTail []time.Duration
		failed := 0
		for i := range rs {
			if rs[i].failed() {
				failed++
				r.fail("ladder %s #%d: status %d %s", rs[i].kind, i, rs[i].status, rs[i].err)
			}
			lat = append(lat, rs[i].latency())
			if float64(i) >= ladderBacklogCut*float64(len(rs)) {
				lateTail = append(lateTail, rs[i].late())
			}
		}
		for i := range cs {
			r.ack("ladder mutate", i, &cs[i], &commits[i])
		}
		r.allReads += len(rs)
		r.allCommit += len(cs)
		p99, lateP99 := percentile(lat, 0.99), percentile(lateTail, 0.99)
		logf("ladder %.0f/s: p99 %.2f ms, late p99 %.2f ms, %d failed", rate, ms(p99), ms(lateP99), failed)
		if failed > 0 || p99 > latencyLimit || lateP99 > latencyLimit {
			break
		}
		r.ladderQPS = rate
		rate *= ladderGrowth
	}
}

// recoverLoop SIGKILLs the leader and restarts it on the same store until
// its /topk is byte-identical to the last acknowledged version's body.
func (r *realResult) recoverLoop(cfg *config, want []byte, leader *daemon, dataPath, storeRoot string) error {
	d := leader
	for i := 0; i < recoveries; i++ {
		d.kill()
		start := time.Now()
		nd, err := startDaemon(cfg.daemonBin, filepath.Join(cfg.dir, "leader.log"), daemonArgs(cfg.w, dataPath, storeRoot)...)
		if err != nil {
			return err
		}
		took, err := waitBody(nd, nd.url("/topk"), want, start, readyLimit)
		if err != nil {
			r.fail("recovery %d: %v", i, err)
			return nil
		}
		r.recover = append(r.recover, took)
		d = nd
	}
	return nil
}

// e2e derives the end-to-end metrics from the run.
func (r *realResult) e2e(cfg *config) map[string]float64 {
	w := cfg.w
	m := map[string]float64{}
	lat := func(kind reqKind) []time.Duration {
		var out []time.Duration
		for i := range r.reads {
			if r.reads[i].kind == kind {
				out = append(out, r.reads[i].latency())
			}
		}
		return out
	}
	m["setup_s"] = medianSeconds(r.setup)
	m["setup_wall_s"] = medianSeconds(r.setupWall)
	m["peak_rss_mb"] = r.peakRSSMB
	served := len(r.reads) + len(r.commits)
	m["cpu_ms_per_req"] = ratio(ms(r.cpu), float64(served))
	if t := lat(kindTopK); len(t) > 0 {
		m["topk_p50_ms"] = ms(percentile(t, 0.5))
		m["topk_p99_ms"] = ms(percentile(t, 0.99))
	}
	if q := lat(kindQuality); len(q) > 0 {
		m["quality_p50_ms"] = ms(percentile(q, 0.5))
		m["quality_p99_ms"] = ms(percentile(q, 0.99))
	}
	if p := lat(kindPlan); len(p) > 0 {
		m["plan_p50_ms"] = ms(percentile(p, 0.5))
	}
	if len(r.commits) > 0 {
		var c []time.Duration
		for i := range r.commits {
			c = append(c, r.commits[i].latency())
		}
		m["mutate_p50_ms"] = ms(percentile(c, 0.5))
		m["mutate_p99_ms"] = ms(percentile(c, 0.99))
	}
	if w.follower {
		m["replica_lag_ms"] = r.replicaLag()
	}
	if len(r.recover) > 0 {
		m["recover_s"] = medianSeconds(r.recover)
	}
	if r.ladderRan {
		m["topk_max_qps"] = r.ladderQPS
	}
	m["failed_frac"] = ratio(float64(r.failed), float64(r.allReads+r.allCommit))
	return m
}

// replicaLag is the median, over the timed window's commits, of the time
// from the commit's ack to the end of the first follower /topk reporting
// that version or a later one.
func (r *realResult) replicaLag() float64 {
	var fr []sample
	for _, smp := range r.reads {
		if smp.follower && !smp.failed() {
			fr = append(fr, smp)
		}
	}
	sort.Slice(fr, func(i, j int) bool { return fr[i].end < fr[j].end })
	var lags []float64
	j := 0
	for _, c := range r.commits {
		if c.failed() {
			continue
		}
		for j < len(fr) && fr[j].version < c.version {
			j++
		}
		if j == len(fr) {
			break
		}
		lags = append(lags, math.Max(0, ms(fr[j].end-c.end)))
	}
	return median(lags)
}

// lateP99 is the scheduler's p99 send delay over the timed window.
func (r *realResult) lateP99() time.Duration {
	var late []time.Duration
	for _, smp := range r.reads {
		late = append(late, smp.late())
	}
	for _, smp := range r.commits {
		late = append(late, smp.late())
	}
	return percentile(late, 0.99)
}
