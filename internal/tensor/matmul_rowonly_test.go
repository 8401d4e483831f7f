package tensor

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sched"
)

// TestMatMulTiledMatchesRowOnly pins the 2-D tiled GEMM bit-identical
// to the row-only kernels it replaced, at pool widths 1 and 8, over
// the shapes the tiling targets: a big square product, a tall/skinny
// product, and a short-and-wide streaming product. The row-only
// kernels below are verbatim copies of the replaced code; the tiling
// must not change a single accumulation order. The same widths pin the
// fused streaming-softmax attention kernel to the unfused chain at
// long-sequence, tiny-head and base shapes. -short (the race run)
// keeps only the shapes under shortMaxWork multiply-adds.
func TestMatMulTiledMatchesRowOnly(t *testing.T) {
	const shortMaxWork = 1 << 24
	ex := sched.New(7)
	defer ex.Close()
	pools := map[int]*Pool{1: NewPool(1), 8: NewParallelPool(8, ex)}

	rng := rand.New(rand.NewSource(31))
	for _, s := range []struct {
		name    string
		m, k, n int
	}{
		{"square_1024", 1024, 1024, 1024},
		{"tall_4096x256x64", 4096, 256, 64},
		{"wide_2x64x4096", 2, 64, 4096},
	} {
		if testing.Short() && s.m*s.k*s.n > shortMaxWork {
			continue
		}
		a := RandNormal(rng, 0, 1, s.m, s.k)
		b := RandNormal(rng, 0, 1, s.k, s.n)
		dst := New(s.m, s.n)
		ref := New(s.m, s.n)
		blocked := int64(s.m)*int64(s.k)*int64(s.n) >= blockedMinWork
		for w, p := range pools {
			matmulInto(p, dst.data, a.data, b.data, s.m, s.n, s.k, s.k, s.n, false, false)
			if blocked {
				matmulBlockedRowOnly(p, ref.data, a.data, b.data, s.m, s.n, s.k, s.k, s.n, false, false)
			} else {
				matmulStreamRowOnly(p, ref.data, a.data, b.data, s.m, s.n, s.k, s.k, s.n)
			}
			if d := MaxAbsDiff(dst, ref); d != 0 {
				t.Fatalf("%s width %d: tiled kernel differs from row-only baseline (max |Δ| %g)", s.name, w, d)
			}
		}
	}

	for _, s := range []struct {
		name     string
		g, s, dh int
	}{
		{"longseq_4x1024x16", 4, 1024, 16},
		{"tinyhead_16x256x8", 16, 256, 8},
		{"base_8x256x64", 8, 256, 64},
	} {
		if testing.Short() && s.g*s.s*s.s*s.dh > shortMaxWork {
			continue
		}
		arng := rand.New(rand.NewSource(47))
		q := RandNormal(arng, 0, 1, s.g, s.s, s.dh)
		k := RandNormal(arng, 0, 1, s.g, s.s, s.dh)
		v := RandNormal(arng, 0, 1, s.g, s.s, s.dh)
		scale := float32(1 / math.Sqrt(float64(s.dh)))
		out := New(s.g, s.s, s.dh)
		for w, p := range pools {
			if err := AttentionInto(p, out, q, k, v, scale); err != nil {
				t.Fatal(err)
			}
			if d := MaxAbsDiff(out, naiveAttentionRef(t, p, q, k, v, scale)); d != 0 {
				t.Fatalf("%s width %d: fused attention differs from naive chain (max |Δ| %g)", s.name, w, d)
			}
		}
	}
}

// matmulBlockedRowOnly is the pre-tier-2 blocked GEMM, verbatim: one
// column panel at a time, B packed per (panel, slab), and parallelism
// only over the rows inside the current panel. Kept as the reference
// the tiled kernel must match bit for bit.
func matmulBlockedRowOnly(p *Pool, dst, a, b []float32, m, n, k, lda, ldb int, transA, transB bool) {
	packB := p.scratchBuf(scratchPackB, blockK*blockN)
	for jc := 0; jc < n; jc += blockN {
		nc := min(blockN, n-jc)
		for pc := 0; pc < k; pc += blockK {
			kc := min(blockK, k-pc)
			packPanelB(packB, b, pc, kc, jc, nc, ldb, transB)
			grain := 1 + 65536/(nc*kc+1)
			p.ForLane(m, grain, func(lane, lo, hi int) {
				packA := p.laneScratch(lane, scratchPackA, blockM*blockK)
				for ic := lo; ic < hi; ic += blockM {
					mc := min(blockM, hi-ic)
					packPanelA(packA, a, ic, mc, pc, kc, lda, transA)
					matmulMicro(dst, packA, packB, ic, mc, jc, nc, kc, n, pc == 0)
				}
			})
		}
	}
}

// matmulStreamRowOnly is the pre-tier-2 streaming dispatch, verbatim in
// effect: rows are the only split axis, so short-and-wide products ran
// on at most m chunks regardless of width.
func matmulStreamRowOnly(p *Pool, dst, a, b []float32, m, n, k, lda, ldb int) {
	rowGrain := 1 + 65536/(n*k+1)
	p.For(m, rowGrain, func(lo, hi int) {
		matmulRows(dst, a, b, lo, hi, 0, n, n, k, lda, ldb)
	})
}
