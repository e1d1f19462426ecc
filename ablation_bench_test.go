package topkclean

// Ablation benchmarks for the design choices documented in DESIGN.md:
//
//  1. PSR's O(k) deconvolution recurrence vs. rebuilding the excluded-group
//     Poisson binomial from scratch for every tuple, and the rebuild's cost
//     at depth (BenchmarkPSRSyntheticDeepK).
//  2. The DP planner's geometric-decay cap on per-x-tuple operation counts
//     vs. the paper's raw J_l = floor(C/c_l).
//  3. The greedy planner's heap vs. a full re-scan per taken operation.
//  4. Compensated (Kahan) vs. naive summation for the entropy accumulation
//     (correctness ablation: the benchmark reports the absolute drift).

import (
	"context"
	"fmt"
	"testing"

	"github.com/probdb/topkclean/internal/cleaning"
	"github.com/probdb/topkclean/internal/numeric"
	"github.com/probdb/topkclean/internal/quality"
	"github.com/probdb/topkclean/internal/topkq"
)

func BenchmarkAblationPSR_Deconvolution(b *testing.B) {
	db := benchSynthetic(b, 5000)
	for i := 0; i < b.N; i++ {
		if _, err := topkq.TopKProbabilities(db, 15); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPSR_RebuildOnly(b *testing.B) {
	db := benchSynthetic(b, 5000)
	for i := 0; i < b.N; i++ {
		if _, err := topkq.AblationRebuildOnly(db, 15); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPSRSyntheticDeepK runs the light PSR pass on the paper's default
// synthetic data, k up to 2000. There a group's leading alternatives often
// carry most of its mass, so the own-group mass passes the deconvolution
// limit at ~40% of scanned positions; the equal 1/5 probabilities of the
// grid benchmarks in internal/topkq under-represent that rebuild path. The
// reported counts are per pass.
func BenchmarkPSRSyntheticDeepK(b *testing.B) {
	db := benchSynthetic(b, 5000)
	for _, k := range []int{15, 200, 2000} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var info *topkq.RankInfo
			for i := 0; i < b.N; i++ {
				var err error
				if info, err = topkq.TopKProbabilities(db, k); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(info.Rebuilds), "rebuilds/op")
			b.ReportMetric(float64(info.Processed), "processed/op")
		})
	}
}

func BenchmarkAblationDP_Capped(b *testing.B) {
	db := benchSynthetic(b, 5000)
	for _, c := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("C=%d", c), func(b *testing.B) {
			ctx := benchCtx(b, db, 15, c)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cleaning.DP(context.Background(), ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationDP_NoCap(b *testing.B) {
	db := benchSynthetic(b, 5000)
	for _, c := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("C=%d", c), func(b *testing.B) {
			ctx := benchCtx(b, db, 15, c)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cleaning.AblationDPNoCap(context.Background(), ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationGreedy_Heap(b *testing.B) {
	db := benchSynthetic(b, 5000)
	ctx := benchCtx(b, db, 15, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cleaning.Greedy(context.Background(), ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationGreedy_Rescan(b *testing.B) {
	db := benchSynthetic(b, 5000)
	ctx := benchCtx(b, db, 15, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cleaning.AblationGreedyRescan(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationEntropy_Kahan(b *testing.B) {
	dist := benchDist(b)
	var s float64
	for i := 0; i < b.N; i++ {
		s = numeric.NegEntropyBits(dist)
	}
	b.ReportMetric(s, "entropy")
}

func BenchmarkAblationEntropy_Naive(b *testing.B) {
	dist := benchDist(b)
	kahan := numeric.NegEntropyBits(dist)
	var s float64
	for i := 0; i < b.N; i++ {
		s = 0
		for _, p := range dist {
			s += numeric.Y(p)
		}
	}
	// Report how far naive summation drifts from the compensated result.
	drift := s - kahan
	if drift < 0 {
		drift = -drift
	}
	b.ReportMetric(drift, "abs-drift")
}

// benchDist materializes a large pw-result probability vector (the PWR
// distribution of a small-k query on a mid-sized database).
func benchDist(b *testing.B) []float64 {
	b.Helper()
	db := benchSynthetic(b, 100)
	d, err := quality.PWRDist(db, 5)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]float64, len(d))
	for i, r := range d {
		out[i] = r.Prob
	}
	return out
}
