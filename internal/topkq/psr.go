package topkq

import (
	"errors"
	"fmt"

	"github.com/probdb/topkclean/internal/uncertain"
)

// ErrKTooLarge is returned when k exceeds the number of x-tuples: with
// fewer than k x-tuples no possible world can produce k alternatives, and
// the paper's query semantics are undefined.
var ErrKTooLarge = errors.New("topkq: k exceeds the number of x-tuples")

// ErrBadK is returned for k < 1.
var ErrBadK = errors.New("topkq: k must be at least 1")

// fullMass is the threshold above which a group's mass above the scan point
// counts as "certainly contributes a higher-ranked alternative" (E_{i,l}=1
// in Lemma 2). Group masses are sums of at most a few thousand float64
// probabilities, so 1e-12 comfortably absorbs the rounding.
const fullMass = 1 - 1e-12

// deconvLimit is the largest own-group mass for which the forward
// deconvolution recurrence is used. The recurrence's error amplification
// per index step is q/(1-q), so at q <= 0.5 the factor is at most 1 and
// rounding stays bounded by ~k ulps regardless of k (verified by the
// convolve/deconvolve round-trip property test). Above the limit we
// rebuild the excluded-group distribution from scratch (exact, over the
// partial groups only; see rebuildExcluding). That path is not rare: on
// the paper's default synthetic data ~40% of scanned positions take it
// (BenchmarkPSRSyntheticDeepK reports the counts).
const deconvLimit = 0.5

// RankProbabilities runs PSR over src and retains per-rank probabilities
// rho_i(h), as needed by U-kRanks. Time O(k*n), space O(k*Processed).
func RankProbabilities(src Source, k int) (*RankInfo, error) {
	return compute(src, k, true, deconvLimit)
}

// TopKProbabilities runs PSR over src retaining only the top-k
// probabilities p_i, which is all PT-k, Global-topk, and quality
// evaluation need. Time O(k*n), space O(n).
func TopKProbabilities(src Source, k int) (*RankInfo, error) {
	return compute(src, k, false, deconvLimit)
}

// AblationRebuildOnly computes top-k probabilities using only the
// from-scratch Poisson-binomial rebuild (never the O(k) deconvolution
// recurrence). It exists to quantify the design decision documented in
// DESIGN.md: the deconvolution path is what makes PSR O(kn). Results are
// identical to TopKProbabilities; only the cost differs.
func AblationRebuildOnly(src Source, k int) (*RankInfo, error) {
	return compute(src, k, false, -1)
}

// checkpointEvery is the spacing, in rank positions, of the scan-state
// checkpoints compute records into RankInfo for Resume. Spacing trades the
// replay bound (a resume reprocesses at most checkpointEvery positions
// before the watermark) against snapshot memory (each checkpoint is O(k)
// plus the active list); 64 keeps both negligible next to the O(k *
// Processed) pass itself. See DESIGN.md ("Checkpoints") for the numbers.
const checkpointEvery = 64

// qSnapshot is one entry of a checkpoint's sparse q vector. The group is
// keyed by x-tuple identity rather than index: mutations renumber group
// indices (DeleteXTuple shifts later groups down) and clone x-tuples
// copy-on-write (so pointer identity breaks across epochs too), but the
// stable identity XTuple.Is matches on survives both, so a snapshot
// outlives renumbering and cloning and is re-resolved to current indices
// at restore time.
type qSnapshot struct {
	x *uncertain.XTuple
	q float64
}

// checkpoint captures the PSR scan state immediately before processing one
// rank position. Restoring it and replaying the scan from pos yields
// output bit-identical to a from-scratch pass, because every float64
// operation from the restored state onward is the same.
type checkpoint struct {
	pos        int
	F          []float64   // truncated Poisson-binomial over groups above the scan point
	q          []qSnapshot // active groups in first-appearance order (rebuild order matters)
	fullGroups int
	rebuilds   int // info.Rebuilds as of pos, so a resumed count matches a fresh one
}

// scanState is the live state of the PSR scan loop.
type scanState struct {
	q          []float64 // q[g]: mass of group g above the scan point
	active     []int     // groups with q > 0, for from-scratch rebuilds
	F, G       []float64
	scratch    []float64
	fullGroups int
}

func newScanState(k, m int) *scanState {
	st := &scanState{
		q:       make([]float64, m),
		active:  make([]int, 0, 64),
		F:       make([]float64, k),
		G:       make([]float64, k),
		scratch: make([]float64, k),
	}
	st.F[0] = 1
	return st
}

// snapshot records the state as a checkpoint for position pos.
func (st *scanState) snapshot(src Source, pos, rebuilds int) checkpoint {
	c := checkpoint{
		pos:        pos,
		F:          append([]float64(nil), st.F...),
		q:          make([]qSnapshot, 0, len(st.active)),
		fullGroups: st.fullGroups,
		rebuilds:   rebuilds,
	}
	for _, g := range st.active {
		x, _ := src.Group(g) // active groups came from the source: in range
		c.q = append(c.q, qSnapshot{x: x, q: st.q[g]})
	}
	return c
}

// restore rebuilds a live scan state from the checkpoint against the
// database's current group numbering. It reports false when a referenced
// x-tuple no longer belongs to the database (it was deleted); that can
// only happen for a checkpoint beyond the mutation's watermark, which
// Resume never selects under the documented contract — the check is a
// safety net that downgrades a contract violation to a fresh scan.
func (c *checkpoint) restore(db *uncertain.Database, k int) (*scanState, bool) {
	m := db.NumGroups()
	st := newScanState(k, m)
	copy(st.F, c.F)
	groups := db.Groups()
	for _, e := range c.q {
		if len(e.x.Tuples) == 0 {
			return nil, false
		}
		// Fast path: the checkpointed x-tuple's group index (frozen at
		// checkpoint time) still names the same logical x-tuple — true
		// whenever no intervening delete renumbered the survivors, even if
		// copy-on-write replaced the object itself.
		g := e.x.Tuples[0].Group
		if g < 0 || g >= m || !groups[g].Is(e.x) {
			// Renumbered since the checkpoint: re-resolve by stable
			// identity. Deletes are rare next to the scans this feeds, so
			// the linear fallback is fine; a miss means the x-tuple was
			// deleted and the checkpoint cannot seed this database.
			g = -1
			for gi := range groups {
				if groups[gi].Is(e.x) {
					g = gi
					break
				}
			}
			if g < 0 {
				return nil, false
			}
		}
		st.q[g] = e.q
		st.active = append(st.active, g)
	}
	st.fullGroups = c.fullGroups
	return st, true
}

// compute scans the alternatives in descending rank order, maintaining the
// truncated Poisson-binomial distribution
//
//	F[j] = Pr[exactly j x-tuples contribute an alternative ranked above
//	          the scan point],  j = 0..k-1,
//
// over the independent per-x-tuple events "this x-tuple has an alternative
// above the scan point" (event probability q_g = mass of the x-tuple's
// alternatives above the scan point). For the alternative t_i of x-tuple l,
// the own event must be excluded (alternatives of the same x-tuple are
// mutually exclusive):
//
//	G = F deconvolved by Bernoulli(q_l)
//	rho_i(h) = e_i * G[h-1],  p_i = e_i * sum_{j<k} G[j]
//
// and afterwards the scan point moves below t_i, so F becomes G convolved
// with Bernoulli(q_l + e_i). The x-tuple index l is the source's global
// group, so one scan serves a database and a shard merge alike.
func compute(src Source, k int, keepRho bool, deconvLim float64) (*RankInfo, error) {
	if !src.Built() {
		return nil, uncertain.ErrNotBuilt
	}
	if k < 1 {
		return nil, fmt.Errorf("k = %d: %w", k, ErrBadK)
	}
	m := src.NumGroups()
	if k > m {
		return nil, fmt.Errorf("k = %d, m = %d: %w", k, m, ErrKTooLarge)
	}
	// TopK and rho hold only the processed prefix: Lemma 2 usually stops
	// the scan after a small fraction of a large database, and sizing the
	// output to the prefix keeps PSR's cost O(k * Processed) rather than
	// O(n) in allocations.
	info := &RankInfo{K: k, N: src.NumTuples(), TopK: make([]float64, 0, 256), deconvLim: deconvLim}
	if keepRho {
		info.rho = make([][]float64, 0, 256)
	}
	return scanFrom(src, info, newScanState(k, m), 0, keepRho)
}

// scanFrom runs the PSR scan loop from rank position start with the given
// (fresh or checkpoint-restored) state, appending to info's prefix. It
// records a checkpoint every checkpointEvery positions — aligned to
// absolute positions, so resumed passes checkpoint at the same spots a
// fresh pass would — plus one final checkpoint when the scan exhausts the
// array, which is what lets a later Resume extend the scan over tuples
// appended below the old end.
//
// The source is read lazily and never past the early-termination point —
// the Lemma 2 check follows each step, before the next alternative is
// asked for — so a shard merge opens no shard the scan does not reach. A
// source that ends before NumTuples() ends the scan as if Lemma 2 had
// fired, which keeps the scan total on a malformed source; a correct one
// never does.
func scanFrom(src Source, info *RankInfo, st *scanState, start int, keepRho bool) (*RankInfo, error) {
	k := info.K
	deconvLim := info.deconvLim
	i := start
	if st.fullGroups >= k {
		// Restored from the exhaustion checkpoint of a scan that had
		// already reached Lemma 2: nothing below start can contribute.
		return endScan(src, info, st, i)
	}
	// Iterate by runs: one seek per run (a database chunk), O(1) per
	// step, and — unlike materializing db.Sorted() — no O(n) allocation,
	// which is what keeps a watermark-resumed pass sub-linear.
	for t, l := range Ranks(src, start, src.NumTuples()) {
		if i > start && i%checkpointEvery == 0 {
			info.ckpts = append(info.ckpts, st.snapshot(src, i, info.Rebuilds))
		}
		ql := st.q[l]
		switch {
		case ql == 0:
			copy(st.G, st.F)
		case ql <= deconvLim:
			deconvolve(st.G, st.F, ql)
		default:
			rebuildExcluding(st.G, st.q, st.active, l)
			info.Rebuilds++
		}

		var p float64
		for j := 0; j < k; j++ {
			p += st.G[j]
		}
		p *= t.Prob
		if p < 0 {
			p = 0
		} else if p > 1 {
			p = 1
		}
		info.TopK = append(info.TopK, p)
		if keepRho {
			row := make([]float64, k)
			for j := 0; j < k; j++ {
				r := t.Prob * st.G[j]
				if r < 0 {
					r = 0
				}
				row[j] = r
			}
			info.rho = append(info.rho, row)
		}

		// Advance the scan point below t: the own group's event probability
		// grows by e_i.
		if ql == 0 {
			st.active = append(st.active, l)
		}
		qNew := ql + t.Prob
		if qNew > 1 {
			qNew = 1
		}
		st.q[l] = qNew
		if ql < fullMass && qNew >= fullMass {
			st.fullGroups++
		}
		convolve(st.F, st.G, qNew, st.scratch)
		i++
		if st.fullGroups >= k {
			// Lemma 2: at least k x-tuples certainly place an alternative
			// above every remaining tuple, so p = 0 from here on.
			break
		}
	}
	return endScan(src, info, st, i)
}

// endScan records where the scan stopped — Processed — plus, when it
// reached the end of the order, the exhaustion checkpoint.
func endScan(src Source, info *RankInfo, st *scanState, i int) (*RankInfo, error) {
	info.Processed = i
	if i == src.NumTuples() && (len(info.ckpts) == 0 || info.ckpts[len(info.ckpts)-1].pos != i) {
		info.ckpts = append(info.ckpts, st.snapshot(src, i, info.Rebuilds))
	}
	return info, nil
}

// deconvolve computes G such that F = G convolved with Bernoulli(q):
// G[j] = (F[j] - q*G[j-1]) / (1-q). Tiny negative entries produced by
// cancellation are clamped to zero.
func deconvolve(G, F []float64, q float64) {
	inv := 1 / (1 - q)
	prev := 0.0
	for j := range F {
		g := (F[j] - q*prev) * inv
		if g < 0 {
			g = 0
		}
		G[j] = g
		prev = g
	}
}

// convolve computes F = G convolved with Bernoulli(q), truncated to len(G):
// F[j] = (1-q)*G[j] + q*G[j-1]. scratch must have the same length and is
// used to allow F and G to alias.
func convolve(F, G []float64, q float64, scratch []float64) {
	p := 1 - q
	prev := 0.0
	for j := range G {
		scratch[j] = p*G[j] + q*prev
		prev = G[j]
	}
	copy(F, scratch)
}

// rebuildExcluding recomputes from scratch the truncated Poisson-binomial
// distribution over every active group except l. This is the numerically
// exact fallback used when the forward deconvolution would divide by a
// small 1-q.
//
// Only the partial groups (0 < q < fullMass) are convolved. A full-mass
// group is a Bernoulli(1) factor, a pure shift by one index, and a shift
// commutes with truncated convolution at every index it keeps; so the s
// full groups become one shift at the end, and the partial groups are
// convolved, in active order, into the k-s entries that survive it. The
// c-th partial convolution stops at index c: the c-1 before it leave every
// entry above c-1 exactly +0, and p*0 + q*0 is +0 again. Each float64
// operation that remains is the one the group-by-group rebuild would make,
// so the output is bit-identical to it, in O(active + partial *
// min(partial, k-s)) plus one O(k) clear instead of O(active * k).
func rebuildExcluding(G, q []float64, active []int, l int) {
	clear(G)
	k := len(G)
	s := 0
	for _, g := range active {
		if g != l && q[g] >= fullMass {
			s++
		}
	}
	if s >= k {
		return
	}
	H := G[:k-s]
	H[0] = 1
	top := 0 // highest index of H that may be nonzero
	for _, g := range active {
		qg := q[g]
		if g == l || qg == 0 || qg >= fullMass {
			continue
		}
		if top < len(H)-1 {
			top++
		}
		p := 1 - qg
		prev := 0.0
		for j := 0; j <= top; j++ {
			cur := H[j]
			H[j] = p*cur + qg*prev
			prev = cur
		}
	}
	if s > 0 {
		copy(G[s:s+top+1], H[:top+1])
		clear(G[:s])
	}
}
