package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"

	topkclean "github.com/probdb/topkclean"
	"github.com/probdb/topkclean/internal/uncertain"
)

// Response shapes of the daemon's /topk, /quality and /plan, encoded the
// way the daemon encodes them: /topk with json.Marshal, the others with a
// json.Encoder (trailing newline). The oracle compares daemon bodies with
// these encodings byte for byte.
type answerJSON struct {
	H     int     `json:"h,omitempty"`
	ID    string  `json:"id"`
	Score float64 `json:"score"`
	Rank  int     `json:"rank"`
	Prob  float64 `json:"prob"`
}

type topkResponse struct {
	Version    uint64       `json:"version"`
	K          int          `json:"k"`
	Threshold  float64      `json:"threshold"`
	Quality    float64      `json:"quality"`
	UKRanks    []answerJSON `json:"ukranks"`
	PTK        []answerJSON `json:"ptk"`
	GlobalTopK []answerJSON `json:"globaltopk"`
}

type qualityResponse struct {
	Version uint64  `json:"version"`
	K       int     `json:"k"`
	Quality float64 `json:"quality"`
}

type planResponse struct {
	Version             uint64         `json:"version"`
	Planner             string         `json:"planner"`
	Budget              int            `json:"budget"`
	Plan                map[string]int `json:"plan"`
	Ops                 int            `json:"ops"`
	Cost                int            `json:"cost"`
	ExpectedImprovement float64        `json:"expected_improvement"`
}

// encodeTopK is the daemon's /topk encoding of one result.
func encodeTopK(res *topkclean.Result) ([]byte, error) {
	resp := topkResponse{
		Version:    res.Version,
		K:          res.K,
		Threshold:  res.Threshold,
		Quality:    res.Quality,
		UKRanks:    make([]answerJSON, 0, len(res.UKRanks)),
		PTK:        make([]answerJSON, 0, len(res.PTK)),
		GlobalTopK: make([]answerJSON, 0, len(res.GlobalTopK)),
	}
	for _, a := range res.UKRanks {
		resp.UKRanks = append(resp.UKRanks, answerJSON{H: a.H, ID: a.ID, Score: a.Score, Rank: a.Rank, Prob: a.Prob})
	}
	for _, a := range res.PTK {
		resp.PTK = append(resp.PTK, answerJSON{ID: a.ID, Score: a.Score, Rank: a.Rank, Prob: a.Prob})
	}
	for _, a := range res.GlobalTopK {
		resp.GlobalTopK = append(resp.GlobalTopK, answerJSON{ID: a.ID, Score: a.Score, Rank: a.Rank, Prob: a.Prob})
	}
	return json.Marshal(resp)
}

func encodeLine(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

func planToWire(p topkclean.CleaningPlan) map[string]int {
	out := make(map[string]int, len(p))
	for l, ops := range p {
		if ops > 0 {
			out[strconv.Itoa(l)] = ops
		}
	}
	return out
}

// reference answers requests from a fresh engine over the mirror
// database at the version a response reports, so each comparison is
// against a from-scratch computation, not the daemon's incremental path.
// It replays the op stream from the dataset in version order and keeps
// only the current version, so checking a run costs one pass over the
// stream and little memory.
type reference struct {
	ctx context.Context
	s   *stream
}

// refAt answers requests at one version.
type refAt struct {
	ctx  context.Context
	snap *uncertain.Database
	e    *topkclean.Engine
}

// walk calls fn at each of vers (ascending, duplicates ignored).
func (r *reference) walk(vers []uint64, fn func(v uint64, a *refAt) error) error {
	db, err := loadCSV(r.s.csv)
	if err != nil {
		return err
	}
	next := 0 // the next commit to apply
	done := uint64(0)
	for _, v := range vers {
		if v == done && done != 0 {
			continue
		}
		if v < db.Version() {
			return fmt.Errorf("reference walk: versions out of order (%d after %d)", v, db.Version())
		}
		for db.Version() < v {
			if next == len(r.s.commits) {
				return fmt.Errorf("version %d was never produced by the op stream", v)
			}
			ops := r.s.commits[next].ops
			if err := db.Batch(func(b *uncertain.Batch) error { return applyOps(b, ops) }); err != nil {
				return err
			}
			next++
		}
		snap := db.Snapshot()
		e, err := topkclean.New(snap, topkclean.WithK(defaultK), topkclean.WithPTKThreshold(defaultThreshold), topkclean.WithSeed(engineSeed))
		if err != nil {
			return err
		}
		if err := fn(v, &refAt{ctx: r.ctx, snap: snap, e: e}); err != nil {
			return err
		}
		done = v
	}
	return nil
}

func (a *refAt) topk(threshold float64) ([]byte, error) {
	res, err := a.e.AnswersThreshold(a.ctx, threshold)
	if err != nil {
		return nil, err
	}
	return encodeTopK(res)
}

func (a *refAt) quality(k int) ([]byte, error) {
	q, qv, err := a.e.QualityAtVersion(a.ctx, k)
	if err != nil {
		return nil, err
	}
	return encodeLine(qualityResponse{Version: qv, K: k, Quality: q})
}

func (a *refAt) plan(planner string, budget int) ([]byte, error) {
	spec := planSpec(a.snap)
	plan, cctx, err := a.e.PlanCleaning(a.ctx, planner, spec, budget)
	if err != nil {
		return nil, err
	}
	return encodeLine(planResponse{
		Version:             cctx.Version,
		Planner:             planner,
		Budget:              budget,
		Plan:                planToWire(plan),
		Ops:                 plan.Ops(),
		Cost:                plan.TotalCost(spec),
		ExpectedImprovement: topkclean.ExpectedImprovement(cctx, plan),
	})
}

// topkAt is the reference /topk body at one version.
func (r *reference) topkAt(v uint64, threshold float64) ([]byte, error) {
	var body []byte
	err := r.walk([]uint64{v}, func(_ uint64, a *refAt) error {
		var err error
		body, err = a.topk(threshold)
		return err
	})
	return body, err
}

// planSpec is the daemon's spec for {"scprob": 0.7}: uniform cost 1.
func planSpec(db *uncertain.Database) topkclean.CleaningSpec {
	return topkclean.UniformCleaningSpec(db.NumGroups(), 1, planScProb)
}

// bodyVersion reads the leading "version" field every daemon response in
// the benchmark starts with, without decoding the whole body.
func bodyVersion(body []byte) (uint64, bool) {
	const prefix = `{"version":`
	if !bytes.HasPrefix(body, []byte(prefix)) {
		return 0, false
	}
	var v uint64
	i := len(prefix)
	for ; i < len(body) && body[i] >= '0' && body[i] <= '9'; i++ {
		v = v*10 + uint64(body[i]-'0')
	}
	return v, i > len(prefix)
}
