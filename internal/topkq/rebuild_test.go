package topkq

import (
	"math"
	"math/rand"
	"testing"
)

// rebuildExcludingRef is the group-by-group rebuild: it convolves every
// active group except l over the whole length-k array, shifting in place
// for full-mass groups, in O(active*k). It is the reference the
// partial-group kernel must match bit for bit.
func rebuildExcludingRef(G, q []float64, active []int, l int) {
	for j := range G {
		G[j] = 0
	}
	G[0] = 1
	k := len(G)
	for _, g := range active {
		if g == l || q[g] == 0 {
			continue
		}
		qg := q[g]
		if qg >= fullMass {
			// Bernoulli(1): pure shift.
			for j := k - 1; j >= 1; j-- {
				G[j] = G[j-1]
			}
			G[0] = 0
			continue
		}
		p := 1 - qg
		prev := 0.0
		for j := 0; j < k; j++ {
			cur := G[j]
			G[j] = p*cur + qg*prev
			prev = cur
		}
	}
}

// checkRebuildBits runs both rebuilds on one input, each into an array
// poisoned with NaN so an entry the kernel fails to write shows, and
// requires identical float64 bits at every index.
func checkRebuildBits(t *testing.T, k int, q []float64, active []int, l int) {
	t.Helper()
	got := make([]float64, k)
	want := make([]float64, k)
	for j := range got {
		got[j] = math.NaN()
		want[j] = math.NaN()
	}
	rebuildExcluding(got, q, active, l)
	rebuildExcludingRef(want, q, active, l)
	for j := range got {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("k=%d l=%d active=%v q=%v:\nindex %d: got %v (%#x), reference %v (%#x)",
				k, l, active, q, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
}

// rebuildMass draws a group mass from the classes the kernel branches on
// or that stress float64: exact 0 and 1, the band [fullMass, 1) that
// counts as full, subnormals, a mass just below the band, and ordinary
// values.
func rebuildMass(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return fullMass + (1-fullMass)*rng.Float64()
	case 3:
		return math.Float64frombits(1 + rng.Uint64()%(1<<52-1)) // subnormal
	case 4:
		return math.Nextafter(fullMass, 0)
	default:
		return rng.Float64()
	}
}

// TestRebuildExcludingBitIdentical: the partial-group rebuild (one deferred
// shift for the full-mass groups, each convolution stopped at its highest
// reachable index) must reproduce the group-by-group rebuild bit for bit,
// including which zeros are written. The trials cover every mass class of
// rebuildMass, an empty active list, k=1, an excluded group that is full,
// partial or not active at all, and s >= k full groups besides it.
func TestRebuildExcludingBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	for trial := 0; trial < 20000; trial++ {
		m := rng.Intn(16) // 0 groups: an empty active list
		k := 1 + rng.Intn(8)
		if rng.Intn(8) == 0 {
			k = 1 + rng.Intn(64)
		}
		q := make([]float64, m+1) // group m is never active: an absent l
		var active []int
		for _, g := range rng.Perm(m) {
			if rng.Intn(5) == 0 {
				continue
			}
			q[g] = rebuildMass(rng)
			if trial%7 == 0 && rng.Intn(2) == 0 {
				q[g] = 1 // many full groups: s >= k for small k
			}
			active = append(active, g)
		}
		var l int
		switch {
		case trial%3 == 0 || len(active) == 0:
			l = m
		case trial%3 == 1:
			l = active[rng.Intn(len(active))]
			q[l] = 1 // full and excluded: must not count toward s
		default:
			l = active[rng.Intn(len(active))]
			q[l] = rng.Float64()
		}
		checkRebuildBits(t, k, q, active, l)
	}

	// Hand-picked edges: nothing active; k=1 with and without a full group;
	// exactly k full groups; the excluded group the only full one.
	checkRebuildBits(t, 1, []float64{0}, nil, 0)
	checkRebuildBits(t, 4, []float64{0}, nil, 0)
	checkRebuildBits(t, 1, []float64{0.3, 1, 0.6}, []int{0, 1, 2}, 2)
	checkRebuildBits(t, 1, []float64{0.3, 0.2, 0.6}, []int{0, 1, 2}, 2)
	checkRebuildBits(t, 2, []float64{1, 0.4, 1, 0.7}, []int{0, 1, 2, 3}, 3)
	checkRebuildBits(t, 3, []float64{1, 0.4, 1, 0.7}, []int{0, 1, 2, 3}, 0)
	checkRebuildBits(t, 3, []float64{5e-324, 0.4, fullMass, 0.7}, []int{3, 2, 1, 0}, 1)
}

// FuzzRebuildExcluding decodes k, the excluded group, an active order and
// each active group's mass from the input and requires the partial-group
// rebuild to match rebuildExcludingRef bit for bit. Masses come either
// from the kernel's branch classes (0, 1, the full band, subnormals) or
// from two raw bytes spread over [0, 1].
func FuzzRebuildExcluding(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{4, 2, 0, 1, 9, 1, 5, 0, 2, 200, 7, 3, 7, 2, 1, 1, 1})
	f.Add([]byte{1, 5, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 2, 255, 255})
	f.Add([]byte{40, 0, 3, 0, 128, 4, 9, 9, 6, 1, 2, 5, 77, 6, 6, 6, 3, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		k := 1 + next()%64
		m := next() % 24
		l := next() % (m + 1) // m: a group that is never active
		q := make([]float64, m+1)
		var active []int
		seen := make([]bool, m)
		for len(data) > 0 && len(active) < m {
			g := next() % m
			if seen[g] {
				continue // each group appears in active at most once
			}
			seen[g] = true
			switch next() % 8 {
			case 0:
				q[g] = 0
			case 1:
				q[g] = 1
			case 2:
				q[g] = fullMass + (1-fullMass)*float64(next())/255
			case 3:
				q[g] = math.Float64frombits(uint64(1 + next()<<8 + next())) // subnormal
			default:
				q[g] = float64(next()<<8|next()) / 65535
			}
			active = append(active, g)
		}
		checkRebuildBits(t, k, q, active, l)
	})
}
