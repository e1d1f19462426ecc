package quality

import (
	"fmt"
	"sync"

	"github.com/probdb/topkclean/internal/numeric"
	"github.com/probdb/topkclean/internal/topkq"
	"github.com/probdb/topkclean/internal/uncertain"
)

// Evaluation is the output of the TP algorithm: the quality score together
// with the per-tuple weights and per-x-tuple contributions the cleaning
// planners consume.
type Evaluation struct {
	S float64 // PWS-quality S(D,Q)

	// Omega[i] is the weight w_i of Equation 6 for the alternative at rank
	// position i. S = sum_i Omega[i] * p_i (Theorem 1). Only the leading
	// Info.Processed positions are materialized: beyond them p_i = 0, so
	// the weights are irrelevant (and are not computed, per the
	// optimization noted after Lemma 2).
	Omega []float64

	// GroupGain[l] is g(l,D) = sum_{t_i in tau_l} w_i p_i, the x-tuple's
	// contribution to the quality score (Section V-B). It is <= 0, and
	// S = sum_l GroupGain[l]. Cleaning x-tuple l successfully removes
	// exactly -GroupGain[l] from the quality deficit (Theorem 2).
	GroupGain []float64

	// Info is the rank-probability information used; it can be shared with
	// query evaluation (Section IV-C).
	Info *topkq.RankInfo
}

// TP computes the PWS-quality with the tuple-form expression of Theorem 1:
// S(D,Q) = sum_i w_i p_i. It runs PSR internally (retaining only top-k
// probabilities) and costs O(kn) time. This is the algorithm the paper
// recommends and the default throughout this library.
func TP(db *uncertain.Database, k int) (*Evaluation, error) {
	if err := checkArgs(db, k); err != nil {
		return nil, err
	}
	info, err := topkq.TopKProbabilities(db, k)
	if err != nil {
		return nil, err
	}
	return TPFromInfo(db, info)
}

// TPFromInfo computes the PWS-quality from rank-probability information
// that has already been computed — typically by a query evaluation, so the
// expensive PSR pass is shared between the query answer and its quality
// score (Figure 1(b), Section IV-C). The incremental weight computation
// below is the only extra work, which is why the paper measures the quality
// overhead at just a few percent of query time for large k.
//
// src is the rank source info was computed from — a database, or a shard
// merge, whose global group indices then index GroupGain.
func TPFromInfo(src topkq.Source, info *topkq.RankInfo) (*Evaluation, error) {
	if !src.Built() {
		return nil, uncertain.ErrNotBuilt
	}
	n := src.NumTuples()
	if info == nil || info.N != n {
		return nil, fmt.Errorf("quality: rank info does not match database")
	}
	m := src.NumGroups()
	limit := min(info.Processed, n)
	ev := &Evaluation{
		Omega:     make([]float64, limit),
		GroupGain: make([]float64, m),
		Info:      info,
	}
	// E[l] is the running E_{i,l} of Equation 7: the mass of tau_l's
	// alternatives ranked at or above the scan point. The recurrence of
	// Equation 9 updates it in O(1) per alternative. The array is pure
	// scratch, pooled so the mutate→requery serving loop (which re-derives
	// the evaluation after every mutation) does not allocate O(m) per
	// update.
	E := scratchE(m)
	defer eScratch.Put(E)
	var s numeric.Kahan
	// Run iteration instead of materializing the rank order: this pass
	// runs after every mutation in the serving loop, and the processed
	// prefix is usually a small fraction of a large database.
	i := -1
	for t, l := range topkq.Ranks(src, 0, limit) {
		i++
		E[l] += t.Prob
		p := info.P(i)
		if p == 0 {
			// w_i * p_i = 0 regardless of w_i; skip the weight computation
			// (the optimization noted after Lemma 2) but keep E updated.
			continue
		}
		w := omega(t.Prob, E[l])
		ev.Omega[i] = w
		term := w * p
		ev.GroupGain[l] += term
		s.Add(term)
	}
	ev.S = s.Sum()
	// Guard against floating-point drift pushing the score above the
	// theoretical maximum of 0.
	if ev.S > 0 {
		ev.S = 0
	}
	return ev, nil
}

// eScratch pools the per-evaluation E array; see TPFromInfo.
var eScratch = sync.Pool{New: func() any { return []float64(nil) }}

// scratchE returns a zeroed scratch slice of m float64s from the pool.
func scratchE(m int) []float64 {
	s := eScratch.Get().([]float64)
	if cap(s) < m {
		return make([]float64, m)
	}
	s = s[:m]
	for i := range s {
		s[i] = 0
	}
	return s
}

// omega computes w_i (Equation 8):
//
//	w_i = log2(e_i) + (1/e_i) * (Y(1 - E_i) - Y(1 - E_i + e_i))
//
// where E_i is the mass of the own x-tuple's alternatives ranked at or
// above t_i (including t_i itself) and Y(x) = x log2 x.
func omega(e, Ei float64) float64 {
	a := numeric.Clamp01(1 - Ei)
	b := numeric.Clamp01(1 - Ei + e)
	return numeric.Log2(e) + (numeric.Y(a)-numeric.Y(b))/e
}
