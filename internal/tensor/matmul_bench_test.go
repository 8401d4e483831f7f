package tensor

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sched"
)

func benchMatMul(b *testing.B, m, k, n int) {
	rng := rand.New(rand.NewSource(1))
	p := NewPool(1)
	a := RandNormal(rng, 0, 1, m, k)
	bb := RandNormal(rng, 0, 1, k, n)
	b.SetBytes(int64(2 * m * k * n)) // MACs as "bytes" => shows MFLOP/s*2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatMul(p, a, bb, false, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatMul sweeps square sizes across the streaming→blocked
// dispatch threshold; the tiled/packed kernel's win should grow with
// size as the working set falls out of cache.
func BenchmarkMatMul(b *testing.B) {
	for _, s := range []int{64, 128, 256, 384, 512} {
		b.Run(fmt.Sprintf("%dx%dx%d", s, s, s), func(b *testing.B) { benchMatMul(b, s, s, s) })
	}
}

func BenchmarkMatMul128(b *testing.B)    { benchMatMul(b, 128, 128, 128) }
func BenchmarkMatMul512(b *testing.B)    { benchMatMul(b, 512, 512, 512) }
func BenchmarkMatMulSkinny(b *testing.B) { benchMatMul(b, 8, 64, 256) }

// BenchmarkMatMulInto measures the allocation-free fast path compiled
// plans use.
func BenchmarkMatMulInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := NewPool(1)
	const s = 256
	a := RandNormal(rng, 0, 1, s, s)
	bb := RandNormal(rng, 0, 1, s, s)
	out := New(s, s)
	b.SetBytes(int64(2 * s * s * s))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := MatMulInto(p, out, a, bb, false, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatMulIntraOpLarge is the tier-2 acceptance shape: a 1024³
// product on the 2-D tiled kernel at widths 1 and 8. The tile grid
// exposes mBlocks×gPanels flat work units per reduction slab, so on a
// multi-core host width 8 should track the width-1 time divided by
// close to the worker count. The end-to-end record is BENCHMARK.json
// (perfbench/run.sh).
func BenchmarkMatMulIntraOpLarge(b *testing.B) {
	const s = 1024
	rng := rand.New(rand.NewSource(1))
	a := RandNormal(rng, 0, 1, s, s)
	bb := RandNormal(rng, 0, 1, s, s)
	out := New(s, s)
	for _, w := range []int{1, 8} {
		b.Run(fmt.Sprintf("intraop%d", w), func(b *testing.B) {
			var p *Pool
			if w == 1 {
				p = NewPool(1)
			} else {
				ex := sched.New(w - 1)
				defer ex.Close()
				p = NewParallelPool(w, ex)
			}
			b.SetBytes(int64(2 * s * s * s))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := MatMulInto(p, out, a, bb, false, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMatMulTallSkinny drives the tall/skinny blocked shape
// (gradient-accumulation GEMMs): a single column panel, where the 2-D
// tile grid is what keeps more than one worker busy.
func BenchmarkMatMulTallSkinny(b *testing.B) {
	benchMatMulWidths(b, 4096, 256, 64)
}

// BenchmarkMatMulWideStream drives the short-and-wide streaming shape
// (single-row inference GEMMs): below streamSplitRows the kernel chunks
// over columns, the axis the row-only dispatch could not split.
func BenchmarkMatMulWideStream(b *testing.B) {
	benchMatMulWidths(b, 2, 64, 4096)
}

func benchMatMulWidths(b *testing.B, m, k, n int) {
	rng := rand.New(rand.NewSource(1))
	a := RandNormal(rng, 0, 1, m, k)
	bb := RandNormal(rng, 0, 1, k, n)
	out := New(m, n)
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("intraop%d", w), func(b *testing.B) {
			var p *Pool
			if w == 1 {
				p = NewPool(1)
			} else {
				ex := sched.New(w - 1)
				defer ex.Close()
				p = NewParallelPool(w, ex)
			}
			b.SetBytes(int64(2 * m * k * n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := MatMulInto(p, out, a, bb, false, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConv2D measures the im2col convolution kernel at a VGG-like
// layer shape (unit stride, SAME padding) and at AlexNet's strided
// conv1, both at batch 1 and as served (batch 8, Cout 8).
func BenchmarkConv2D(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name            string
		n, h, w, cin    int
		kh, kw, cout    int
		stride, padding int
	}{
		{"vgg_56x56x64", 1, 56, 56, 64, 3, 3, 64, 1, 1},
		{"alexnet_conv1", 1, 64, 64, 3, 11, 11, 24, 4, 2},
		{"alexnet_conv1_served", 8, 64, 64, 3, 11, 11, 8, 4, 2},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			p := NewPool(1)
			in := RandNormal(rng, 0, 1, c.n, c.h, c.w, c.cin)
			f := RandNormal(rng, 0, 1, c.kh, c.kw, c.cin, c.cout)
			spec := ConvSpec{StrideH: c.stride, StrideW: c.stride, PadH: c.padding, PadW: c.padding}
			oh := ConvOutSize(c.h, c.kh, c.stride, c.padding)
			ow := ConvOutSize(c.w, c.kw, c.stride, c.padding)
			b.SetBytes(2 * int64(c.n) * int64(oh) * int64(ow) * int64(c.cout) * int64(c.kh*c.kw*c.cin))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Conv2D(p, in, f, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMatMulIntraOp puts the two intra-op strategies side by
// side at a blocked-kernel size: serial baseline vs real parallel
// chunks on a shared worker pool. On a multi-core host the intraopN
// variants show measured (not modeled) speedup; run with -cpu 1,4 to
// see both. Throughput (SetBytes = 2·m·k·n) is the comparable metric.
func BenchmarkMatMulIntraOp(b *testing.B) {
	const s = 384
	rng := rand.New(rand.NewSource(1))
	a := RandNormal(rng, 0, 1, s, s)
	bb := RandNormal(rng, 0, 1, s, s)
	out := New(s, s)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("intraop%d", w), func(b *testing.B) {
			var p *Pool
			if w == 1 {
				p = NewPool(1)
			} else {
				ex := sched.New(w - 1)
				defer ex.Close()
				p = NewParallelPool(w, ex)
			}
			b.SetBytes(int64(2 * s * s * s))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := MatMulInto(p, out, a, bb, false, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
