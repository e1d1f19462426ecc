package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/probdb/topkclean/internal/dataio"
	"github.com/probdb/topkclean/internal/gen"
	"github.com/probdb/topkclean/internal/numeric"
	"github.com/probdb/topkclean/internal/topkq"
	"github.com/probdb/topkclean/internal/uncertain"
)

// Wire shapes of /mutate, matching the daemon's request decoder.
type wireTuple struct {
	ID    string    `json:"id"`
	Attrs []float64 `json:"attrs"`
	Prob  float64   `json:"prob"`
}

type wireOp struct {
	Op     string      `json:"op"`
	Name   string      `json:"name,omitempty"`
	Tuples []wireTuple `json:"tuples,omitempty"`
	Group  int         `json:"group,omitempty"`
	Probs  []float64   `json:"probs,omitempty"`
}

// opSink is the mutation surface shared by uncertain, store and shard
// batches, so one op list drives the mirror, the daemon's layers and the
// replay instances identically.
type opSink interface {
	InsertXTuple(name string, tuples ...uncertain.Tuple) error
	DeleteXTuple(l int) error
	Reweight(l int, probs []float64) error
}

func applyOps(b opSink, ops []wireOp) error {
	for i, op := range ops {
		var err error
		switch op.Op {
		case "insert":
			ts := make([]uncertain.Tuple, len(op.Tuples))
			for j, t := range op.Tuples {
				ts[j] = uncertain.Tuple{ID: t.ID, Attrs: t.Attrs, Prob: t.Prob}
			}
			err = b.InsertXTuple(op.Name, ts...)
		case "delete":
			err = b.DeleteXTuple(op.Group)
		case "reweight":
			err = b.Reweight(op.Group, op.Probs)
		default:
			err = fmt.Errorf("unknown op %q", op.Op)
		}
		if err != nil {
			return fmt.Errorf("op %d (%s): %w", i, op.Op, err)
		}
	}
	return nil
}

type reqKind uint8

const (
	kindTopK reqKind = iota
	kindQuality
	kindPlan
	kindMutate
)

var kindNames = [...]string{"topk", "quality", "plan", "mutate"}

func (k reqKind) String() string { return kindNames[k] }

// A read is one scheduled query.
type read struct {
	due       time.Duration
	kind      reqKind
	follower  bool    // sent to the follower daemon
	threshold float64 // /topk
	k         int     // /quality
	planner   string  // /plan
	budget    int     // /plan
}

// A commit is one scheduled /mutate batch.
type commit struct {
	due     time.Duration
	ops     []wireOp
	body    []byte // the /mutate request body
	version uint64 // the database version the commit produces
}

// stream is one run's generated input: the dataset and the op stream.
type stream struct {
	csv         []byte
	baseVersion uint64
	commits     []commit
	reads       []read
	headGroups  int     // distinct x-tuples inside the k-scan prefix at the base version
	headShare   float64 // share of reweight targets drawn inside that prefix
	digest      string
}

// loadCSV parses the dataset exactly as the daemon does for -data.
func loadCSV(csv []byte) (*uncertain.Database, error) {
	return dataio.ReadCSV(bytes.NewReader(csv), uncertain.ByFirstAttr)
}

// generate builds the run's inputs from the seed alone.
func generate(w workload, seed int64, ph phases) (*stream, error) {
	src, err := gen.SyntheticSized(xtuples, seed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := dataio.WriteCSV(&buf, src); err != nil {
		return nil, err
	}
	s := &stream{csv: buf.Bytes()}
	mirror, err := loadCSV(s.csv)
	if err != nil {
		return nil, err
	}
	s.baseVersion = mirror.Version()

	rng := rand.New(rand.NewSource(seed*7919 + 17))
	s.genReads(w, rng, ph)
	if w.commitRate > 0 {
		if err := s.genCommits(w, mirror, rand.New(rand.NewSource(seed*104729+3)), ph); err != nil {
			return nil, err
		}
	}
	s.digest = s.computeDigest()
	return s, nil
}

func (s *stream) genReads(w workload, rng *rand.Rand, ph phases) {
	thrZipf := rand.NewZipf(rng, 1.2, 1, uint64(len(topkThresholds)-1))
	if w.topkRate > 0 {
		rate := w.topkRate * (1 + w.qualityFrac)
		n := int(rate * ph.total().Seconds())
		for i := 0; i < n; i++ {
			r := read{due: slot(i, rate), kind: kindTopK}
			if w.qualityFrac > 0 && rng.Float64() < w.qualityFrac/(1+w.qualityFrac) {
				r.kind, r.k = kindQuality, defaultK
			} else {
				r.threshold = topkThresholds[thrZipf.Uint64()]
				r.follower = w.follower && rng.Float64() < w.followerFrac
			}
			s.reads = append(s.reads, r)
		}
	}
	if w.sweepRate > 0 {
		// The warm-up and the timed window are drawn separately, each
		// stratified so that every seed sends the same multiset in its own
		// order: one /plan in every block of ten requests, /quality k
		// spread evenly over 1..maxSweepK, plan budgets evenly over
		// 20..200, dp and greedy equally often.
		start := 0
		for _, d := range []time.Duration{ph.warm, ph.total()} {
			end := int(w.sweepRate * d.Seconds())
			s.reads = append(s.reads, sweepReads(rng, w.sweepRate, start, end)...)
			start = end
		}
	}
}

// sweepReads draws quality_sweep's requests start..end-1 of the schedule.
func sweepReads(rng *rand.Rand, rate float64, start, end int) []read {
	n := end - start
	nPlan := (n + planEvery - 1) / planEvery
	ks := spread(rng, n-nPlan, 1, maxSweepK)
	budgets := spread(rng, nPlan, 20, 200)
	out := make([]read, n)
	q, p := 0, 0
	for b := 0; b < n; b += planEvery {
		planAt := b + rng.Intn(min(planEvery, n-b))
		for i := b; i < min(b+planEvery, n); i++ {
			r := read{due: slot(start+i, rate)}
			if i == planAt {
				r.kind, r.budget, r.planner = kindPlan, budgets[p], "dp"
				if p%2 == 1 {
					r.planner = "greedy"
				}
				p++
			} else {
				r.kind, r.k = kindQuality, ks[q]
				q++
			}
			out[i] = r
		}
	}
	return out
}

// spread returns n values evenly spaced over lo..hi, in a seeded order.
func spread(rng *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo + (2*i+1)*(hi-lo+1)/(2*n)
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// slot is the due time of the i-th request of a fixed-rate schedule.
func slot(i int, rate float64) time.Duration {
	return time.Duration((float64(i) + 0.5) / rate * float64(time.Second))
}

// genCommits draws the writer's op stream against the mirror. Reweight
// targets are Zipf-distributed over x-tuples ordered by the rank of their
// top alternative, calibrated so that about half land inside the k-scan's
// early-termination prefix; reweights keep each x-tuple's real mass, and
// every churnEvery-th commit inserts one generator-distributed x-tuple and
// deletes a uniformly random one, so size and mass stay stationary.
func (s *stream) genCommits(w workload, mirror *uncertain.Database, rng *rand.Rand, ph phases) error {
	info, err := topkq.TopKProbabilities(mirror.Snapshot(), defaultK)
	if err != nil {
		return err
	}
	s.headGroups = groupsAbove(mirror.Snapshot(), info.Processed)
	v := zipfOffset(1.1, s.headGroups, mirror.NumGroups())
	zipf := rand.NewZipf(rng, 1.1, v, uint64(mirror.NumGroups()-1))
	insertSeq := 0
	var inHead, reweights int
	order := groupOrder(mirror) // reweights keep ranks; churn commits reorder
	n := int(w.commitRate * ph.all().Seconds())
	for i := 0; i < n; i++ {
		nOps := opsPerCommit
		churn := i%churnEvery == churnEvery-1
		if churn {
			nOps -= 2
		}
		ops := make([]wireOp, 0, opsPerCommit)
		for j := 0; j < nOps; j++ {
			r := int(zipf.Uint64())
			if r < s.headGroups {
				inHead++
			}
			reweights++
			ops = append(ops, reweightOp(mirror, order[min(r, len(order)-1)], rng))
		}
		if churn {
			ops = append(ops, insertOp(insertSeq, rng))
			insertSeq++
			ops = append(ops, wireOp{Op: "delete", Group: rng.Intn(mirror.NumGroups())})
		}
		if err := mirror.Batch(func(b *uncertain.Batch) error { return applyOps(b, ops) }); err != nil {
			return fmt.Errorf("commit %d: %w", i, err)
		}
		if churn {
			order = groupOrder(mirror)
		}
		body, err := json.Marshal(struct {
			Ops []wireOp `json:"ops"`
		}{ops})
		if err != nil {
			return err
		}
		s.commits = append(s.commits, commit{due: slot(i, w.commitRate), ops: ops, body: body, version: mirror.Version()})
	}
	if reweights > 0 {
		s.headShare = float64(inHead) / float64(reweights)
	}
	return nil
}

// groupsAbove counts the distinct x-tuples with an alternative among the
// first pos rank positions.
func groupsAbove(db *uncertain.Database, pos int) int {
	seen := make(map[int]bool)
	c := db.CursorAt(0)
	for i := 0; i < pos; i++ {
		t := c.Next()
		if t == nil {
			break
		}
		seen[t.Group] = true
	}
	return len(seen)
}

// groupOrder lists the x-tuples by the rank of their top real
// alternative.
func groupOrder(db *uncertain.Database) []int {
	seen := make([]bool, db.NumGroups())
	order := make([]int, 0, db.NumGroups())
	c := db.CursorAt(0)
	for t := c.Next(); t != nil; t = c.Next() {
		if !t.Null && !seen[t.Group] {
			seen[t.Group] = true
			order = append(order, t.Group)
		}
	}
	return order
}

// zipfOffset picks the Zipf offset v so that P(rank < head) = 1/2 for
// P(r) ∝ (v+r)^-s over r in [0, m).
func zipfOffset(s float64, head, m int) float64 {
	if head < 1 {
		head = 1
	}
	share := func(v float64) float64 {
		var in, all float64
		for r := 0; r < m; r++ {
			p := math.Pow(v+float64(r), -s)
			all += p
			if r < head {
				in += p
			}
		}
		return in / all
	}
	lo, hi := 1.0, float64(m)
	if share(lo) <= 0.5 {
		return lo
	}
	for i := 0; i < 60; i++ {
		mid := math.Sqrt(lo * hi)
		if share(mid) > 0.5 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// reweightOp redraws x-tuple l's probabilities, keeping its real mass.
func reweightOp(db *uncertain.Database, l int, rng *rand.Rand) wireOp {
	x := db.Groups()[l]
	real := x.RealTuples()
	mass := x.RealMass()
	w := make([]float64, len(real))
	var sum float64
	for i := range w {
		w[i] = 0.5 + rng.Float64()
		sum += w[i]
	}
	for i := range w {
		w[i] = w[i] / sum * mass
	}
	return wireOp{Op: "reweight", Group: l, Probs: w}
}

// insertOp draws one x-tuple from the synthetic generator's distribution
// (gen.DefaultSynthetic: domain [0, 10000], width uniform in [60, 100],
// Gaussian sigma 100, 10 equal-width bars).
func insertOp(seq int, rng *rand.Rand) wireOp {
	cfg := gen.DefaultSynthetic()
	mu := cfg.DomainLo + rng.Float64()*(cfg.DomainHi-cfg.DomainLo)
	width := cfg.WidthLo + rng.Float64()*(cfg.WidthHi-cfg.WidthLo)
	bins := numeric.DiscretizeEqualWidth(mu-width/2, mu+width/2, cfg.Bars, numeric.Gaussian{Mu: mu, Sigma: cfg.Sigma}.Mass)
	name := fmt.Sprintf("n%d", seq)
	op := wireOp{Op: "insert", Name: name}
	for b, bin := range bins {
		op.Tuples = append(op.Tuples, wireTuple{ID: fmt.Sprintf("%s.%d", name, b), Attrs: []float64{bin.Value}, Prob: bin.Prob})
	}
	return op
}

// computeDigest hashes the dataset and the whole op stream, reads included.
func (s *stream) computeDigest() string {
	h := sha256.New()
	h.Write(s.csv)
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, c := range s.commits {
		put(uint64(c.due))
		h.Write(c.body)
	}
	for _, r := range s.reads {
		put(uint64(r.due))
		put(uint64(r.kind))
		put(math.Float64bits(r.threshold))
		put(uint64(r.k))
		put(uint64(r.budget))
		h.Write([]byte(r.planner))
		if r.follower {
			put(1)
		} else {
			put(0)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
