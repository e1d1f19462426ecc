package topkq_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/probdb/topkclean/internal/quality"
	"github.com/probdb/topkclean/internal/topkq"
	"github.com/probdb/topkclean/internal/uncertain"
)

// remapSource re-presents a database as a rank source whose global group
// of each tuple is perm[t.Group] — so with a non-identity perm the kernel
// must take groups from the source, not from Tuple.Group — delivered in
// runs of at most maxRun alternatives, so the cursor refills at
// positions a database chunk never ends on.
type remapSource struct {
	db     *uncertain.Database
	perm   []int // database group -> global group
	inv    []int // global group -> database group
	maxRun int
}

func newRemapSource(db *uncertain.Database, perm []int, maxRun int) *remapSource {
	inv := make([]int, len(perm))
	for l, g := range perm {
		inv[g] = l
	}
	return &remapSource{db: db, perm: perm, inv: inv, maxRun: maxRun}
}

func (r *remapSource) Built() bool    { return r.db.Built() }
func (r *remapSource) NumGroups() int { return r.db.NumGroups() }
func (r *remapSource) NumTuples() int { return r.db.NumTuples() }

func (r *remapSource) Group(g int) (*uncertain.XTuple, error) { return r.db.Group(r.inv[g]) }

func (r *remapSource) RankRun(pos int) ([]*uncertain.Tuple, []int) {
	run, _ := r.db.RankRun(pos)
	run = run[:min(len(run), r.maxRun)]
	gs := make([]int, len(run))
	for i, t := range run {
		gs[i] = r.perm[t.Group]
	}
	return run, gs
}

// randomStreamDB builds a database with heavy score ties and mixed masses,
// the regime that stresses every branch of the scan switch.
func randomStreamDB(t *testing.T, seed int64, groups int) *uncertain.Database {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := uncertain.New()
	id := 0
	for g := 0; g < groups; g++ {
		if rng.Intn(12) == 0 {
			if err := db.AddAbsentXTuple(tname(rng, g)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		alts := 1 + rng.Intn(4)
		ts := make([]uncertain.Tuple, alts)
		budget := 1.0
		for a := range ts {
			p := budget * (0.1 + 0.85*rng.Float64()) / float64(alts-a)
			if a == alts-1 && rng.Intn(2) == 0 {
				p = budget // full mass: exercises the fullGroups path
			}
			budget -= p
			ts[a] = uncertain.Tuple{
				ID:    idName(&id),
				Attrs: []float64{float64(rng.Intn(8))}, // few distinct scores: ties everywhere
				Prob:  p,
			}
		}
		if err := db.AddXTuple(tname(rng, g), ts...); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Build(uncertain.ByFirstAttr); err != nil {
		t.Fatal(err)
	}
	return db
}

func tname(rng *rand.Rand, g int) string { return "g" + string(rune('a'+g%26)) + itoa(g) }

func idName(id *int) string { *id++; return "t" + itoa(*id) }

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestSourceBitIdenticalToDatabasePass runs the one PSR kernel, the three
// semantics and TP over remapped sources of a database — identity groups
// and a fixed permutation, both in short runs — and requires everything
// bit-identical to the database's own pass, with each x-tuple's gain
// landing on its global group. The source's checkpoints must also seed a
// Resume of the database.
func TestSourceBitIdenticalToDatabasePass(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		db := randomStreamDB(t, seed, 40)
		m := db.NumGroups()
		identity := make([]int, m)
		for l := range identity {
			identity[l] = l
		}
		rng := rand.New(rand.NewSource(seed))
		for _, src := range []*remapSource{
			newRemapSource(db, identity, 5),
			newRemapSource(db, rng.Perm(m), 3),
		} {
			for _, k := range []int{1, 3, 7, 15} {
				compareSourcePass(t, db, src, k)
			}
		}
	}
}

func compareSourcePass(t *testing.T, db *uncertain.Database, src *remapSource, k int) {
	t.Helper()
	want, err := topkq.RankProbabilities(db, k)
	if err != nil {
		t.Fatal(err)
	}
	got, err := topkq.RankProbabilities(src, k)
	if err != nil {
		t.Fatal(err)
	}
	compareInfo(t, got, want)

	// The semantics over the source must agree with the database-backed ones.
	wantUK, err := topkq.UKRanks(db, want)
	if err != nil {
		t.Fatal(err)
	}
	gotUK, err := topkq.UKRanks(src, got)
	if err != nil {
		t.Fatal(err)
	}
	compareRanked(t, gotUK, wantUK)
	compareScored(t, topkq.PTK(src, got, 0.3), topkq.PTK(db, want, 0.3))
	compareScored(t, topkq.GlobalTopK(src, got), topkq.GlobalTopK(db, want))

	// TP: same score and weights, gains under the global numbering.
	wantEv, err := quality.TPFromInfo(db, want)
	if err != nil {
		t.Fatal(err)
	}
	gotEv, err := quality.TPFromInfo(src, got)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(gotEv.S) != math.Float64bits(wantEv.S) {
		t.Fatalf("k %d: S bits differ: %v vs %v", k, gotEv.S, wantEv.S)
	}
	for i := range wantEv.Omega {
		if math.Float64bits(gotEv.Omega[i]) != math.Float64bits(wantEv.Omega[i]) {
			t.Fatalf("k %d: omega[%d] bits differ", k, i)
		}
	}
	for l, g := range wantEv.GroupGain {
		if math.Float64bits(gotEv.GroupGain[src.perm[l]]) != math.Float64bits(g) {
			t.Fatalf("k %d: gain of group %d bits differ", k, l)
		}
	}

	// Checkpoints recorded over the source key on x-tuple identity, so
	// they resume the database's own scan (from the last checkpoint below
	// the end of the prefix).
	resumed, err := topkq.Resume(db, got, got.Processed-1)
	if err != nil {
		t.Fatal(err)
	}
	compareInfo(t, resumed, want)
}

func compareInfo(t *testing.T, got, want *topkq.RankInfo) {
	t.Helper()
	k := want.K
	if got.Processed != want.Processed {
		t.Fatalf("k %d: Processed %d != %d", k, got.Processed, want.Processed)
	}
	if got.Rebuilds != want.Rebuilds {
		t.Fatalf("k %d: Rebuilds %d != %d", k, got.Rebuilds, want.Rebuilds)
	}
	for i := 0; i < want.Processed; i++ {
		if math.Float64bits(got.P(i)) != math.Float64bits(want.P(i)) {
			t.Fatalf("k %d: p[%d] bits differ: %v vs %v", k, i, got.P(i), want.P(i))
		}
		for h := 1; h <= k; h++ {
			if math.Float64bits(got.Rho(i, h)) != math.Float64bits(want.Rho(i, h)) {
				t.Fatalf("k %d: rho[%d][%d] bits differ", k, i, h)
			}
		}
	}
}

func compareRanked(t *testing.T, got, want []topkq.RankedAnswer) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("UKRanks length %d != %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.H != w.H || g.ID != w.ID || g.Rank != w.Rank ||
			math.Float64bits(g.Prob) != math.Float64bits(w.Prob) ||
			math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			t.Fatalf("UKRanks[%d]: %+v != %+v", i, g, w)
		}
	}
}

func compareScored(t *testing.T, got, want []topkq.ScoredAnswer) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("scored length %d != %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Rank != w.Rank ||
			math.Float64bits(g.Prob) != math.Float64bits(w.Prob) ||
			math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			t.Fatalf("scored[%d]: %+v != %+v", i, g, w)
		}
	}
}

func TestSourceArgErrors(t *testing.T) {
	db := randomStreamDB(t, 99, 5)
	src := newRemapSource(db, []int{4, 3, 2, 1, 0}, 2)
	if _, err := topkq.TopKProbabilities(src, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := topkq.TopKProbabilities(src, db.NumGroups()+1); err == nil {
		t.Fatal("k>m accepted")
	}
}
