package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sched"
)

// naiveMatMul is an obviously-correct reference implementation.
func naiveMatMul(a, b *Tensor, transA, transB bool) *Tensor {
	get := func(t *Tensor, i, j int, tr bool) float32 {
		if tr {
			return t.At(j, i)
		}
		return t.At(i, j)
	}
	m, k := a.Dim(0), a.Dim(1)
	if transA {
		m, k = k, m
	}
	n := b.Dim(1)
	if transB {
		n = b.Dim(0)
	}
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for l := 0; l < k; l++ {
				s += get(a, i, l, transA) * get(b, l, j, transB)
			}
			out.Set(s, i, j)
		}
	}
	return out
}

func TestMatMulKnown(t *testing.T) {
	p := NewPool(1)
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	out, err := MatMul(p, a, b, false, false)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{58, 64, 139, 154}
	for i := range want {
		if out.Data()[i] != want[i] {
			t.Fatalf("MatMul = %v want %v", out.Data(), want)
		}
	}
}

func TestMatMulAllTransposeCombos(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := NewPool(1)
	m, k, n := 5, 7, 3
	for _, ta := range []bool{false, true} {
		for _, tb := range []bool{false, true} {
			ashape := []int{m, k}
			if ta {
				ashape = []int{k, m}
			}
			bshape := []int{k, n}
			if tb {
				bshape = []int{n, k}
			}
			a := RandNormal(rng, 0, 1, ashape...)
			b := RandNormal(rng, 0, 1, bshape...)
			got, err := MatMul(p, a, b, ta, tb)
			if err != nil {
				t.Fatal(err)
			}
			want := naiveMatMul(a, b, ta, tb)
			if !AllClose(got, want, 1e-4, 1e-4) {
				t.Fatalf("transA=%v transB=%v mismatch (max diff %g)", ta, tb, MaxAbsDiff(got, want))
			}
		}
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := RandNormal(rng, 0, 1, 64, 32)
	b := RandNormal(rng, 0, 1, 32, 48)
	s, _ := MatMul(NewPool(1), a, b, false, false)
	q, _ := MatMul(NewPool(8), a, b, false, false)
	if !AllClose(s, q, 1e-6, 1e-6) {
		t.Fatal("parallel matmul differs from serial")
	}
}

func TestMatMulShapeErrors(t *testing.T) {
	p := NewPool(1)
	if _, err := MatMul(p, New(2, 3), New(4, 5), false, false); err == nil {
		t.Fatal("expected inner-dimension error")
	}
	if _, err := MatMul(p, New(2), New(2, 2), false, false); err == nil {
		t.Fatal("expected rank error")
	}
}

// TestMatMulBlockedMatchesStreaming drives the tiled/packed kernel at
// sizes past blockedMinWork — with odd dimensions so partial panels in
// every blocking loop are exercised — and compares it against the
// streaming kernels on the identical operands.
func TestMatMulBlockedMatchesStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := NewPool(1)
	m, k, n := 131, 157, 101 // m·n·k > blockedMinWork, nothing divides a block
	if int64(m)*int64(n)*int64(k) < blockedMinWork {
		t.Fatal("test sizes must engage the blocked kernel")
	}
	for _, ta := range []bool{false, true} {
		for _, tb := range []bool{false, true} {
			ashape := []int{m, k}
			if ta {
				ashape = []int{k, m}
			}
			bshape := []int{k, n}
			if tb {
				bshape = []int{n, k}
			}
			a := RandNormal(rng, 0, 1, ashape...)
			b := RandNormal(rng, 0, 1, bshape...)
			got := New(m, n)
			matmulBlocked(p, got.data, a.data, b.data, m, n, k, a.shape[1], b.shape[1], ta, tb)
			want := New(m, n)
			matmulStreamingForTest(p, want.data, a.data, b.data, m, n, k, a.shape[1], b.shape[1], ta, tb)
			if !AllClose(got, want, 1e-3, 1e-3) {
				t.Fatalf("transA=%v transB=%v: blocked kernel diverges (max diff %g)", ta, tb, MaxAbsDiff(got, want))
			}
		}
	}
}

// matmulStreamingForTest runs the small-size kernels regardless of the
// dispatch threshold.
func matmulStreamingForTest(p *Pool, dst, a, b []float32, m, n, k, lda, ldb int, ta, tb bool) {
	switch {
	case !ta && !tb:
		matmulRows(dst, a, b, 0, m, 0, n, n, k, lda, ldb)
	case !ta && tb:
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s float32
				for l := 0; l < k; l++ {
					s += a[i*lda+l] * b[j*ldb+l]
				}
				dst[i*n+j] = s
			}
		}
	case ta && !tb:
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s float32
				for l := 0; l < k; l++ {
					s += a[l*lda+i] * b[l*ldb+j]
				}
				dst[i*n+j] = s
			}
		}
	default:
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s float32
				for l := 0; l < k; l++ {
					s += a[l*lda+i] * b[j*ldb+l]
				}
				dst[i*n+j] = s
			}
		}
	}
}

func TestMatMulIntoOverwritesDirtyDestination(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := NewPool(1)
	a := RandNormal(rng, 0, 1, 6, 8)
	b := RandNormal(rng, 0, 1, 8, 5)
	want, err := MatMul(p, a, b, false, false)
	if err != nil {
		t.Fatal(err)
	}
	dst := Full(99, 6, 5) // dirty, as arena buffers are
	if err := MatMulInto(p, dst, a, b, false, false); err != nil {
		t.Fatal(err)
	}
	if !AllClose(dst, want, 0, 0) {
		t.Fatal("MatMulInto must fully overwrite the destination")
	}
}

func TestMatMulIntoShapeErrors(t *testing.T) {
	p := NewPool(1)
	if err := MatMulInto(p, New(2, 2), New(2, 3), New(3, 4), false, false); err == nil {
		t.Fatal("expected destination shape error")
	}
	if err := MatMulInto(p, New(2, 2), New(2, 3), New(4, 4), false, false); err == nil {
		t.Fatal("expected inner-dimension error")
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ for random sizes.
func TestMatMulTransposeIdentityQuick(t *testing.T) {
	p := NewPool(2)
	rng := rand.New(rand.NewSource(3))
	f := func(m0, k0, n0 uint8) bool {
		m, k, n := int(m0%6)+1, int(k0%6)+1, int(n0%6)+1
		a := RandNormal(rng, 0, 1, m, k)
		b := RandNormal(rng, 0, 1, k, n)
		ab, err := MatMul(p, a, b, false, false)
		if err != nil {
			return false
		}
		abT, err := Transpose(p, ab, []int{1, 0})
		if err != nil {
			return false
		}
		// Bᵀ·Aᵀ computed with transpose flags on the stored tensors.
		bTaT, err := MatMul(p, b, a, true, true)
		if err != nil {
			return false
		}
		return AllClose(abT, bTaT, 1e-4, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMatMulParallelBitIdentical drives both kernel paths (streaming
// and blocked/packed — the latter via a product over the
// blockedMinWork threshold) at several real-parallel widths and
// demands bitwise equality with the serial pool: chunk boundaries are
// width-independent and per-row accumulation order never changes, so
// the parallel strategy must be invisible in the result bits.
func TestMatMulParallelBitIdentical(t *testing.T) {
	ex := sched.New(4)
	defer ex.Close()
	rng := rand.New(rand.NewSource(3))
	cases := []struct{ m, k, n int }{
		{33, 40, 29},   // streaming kernel
		{128, 96, 128}, // streaming kernel, larger
		{160, 144, 80}, // blocked kernel (m·n·k ≥ 2^20)
		{256, 128, 64}, // blocked kernel, uneven tiles
	}
	for _, tc := range cases {
		a := RandNormal(rng, 0, 1, tc.m, tc.k)
		b := RandNormal(rng, 0, 1, tc.k, tc.n)
		want, err := MatMul(NewPool(1), a, b, false, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 4} {
			p := NewParallelPool(w, ex)
			for _, tr := range []struct{ ta, tb bool }{{false, false}} {
				got, err := MatMul(p, a, b, tr.ta, tr.tb)
				if err != nil {
					t.Fatal(err)
				}
				if d := MaxAbsDiff(got, want); d != 0 {
					t.Fatalf("(%d,%d,%d) width %d: parallel matmul differs (max |Δ| %g)", tc.m, tc.k, tc.n, w, d)
				}
			}
		}
		// Transposed operands through the blocked path too.
		at := RandNormal(rng, 0, 1, tc.k, tc.m)
		wantT, err := MatMul(NewPool(1), at, b, true, false)
		if err != nil {
			t.Fatal(err)
		}
		gotT, err := MatMul(NewParallelPool(4, ex), at, b, true, false)
		if err != nil {
			t.Fatal(err)
		}
		if d := MaxAbsDiff(gotT, wantT); d != 0 {
			t.Fatalf("(%d,%d,%d) transA width 4: differs (max |Δ| %g)", tc.m, tc.k, tc.n, d)
		}
	}
}

// TestConv2DParallelBitIdentical covers the im2col conv kernel
// (unit-stride, strided and padding-dominated shapes) under the real
// parallel strategy, and checks both widths against the direct loop in
// naiveConv2D.
func TestConv2DParallelBitIdentical(t *testing.T) {
	ex := sched.New(4)
	defer ex.Close()
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		name string
		in   []int // N, H, W, Cin
		filt []int // KH, KW, Cin, Cout
		spec ConvSpec
	}{
		{"im2col", []int{2, 12, 12, 8}, []int{3, 3, 8, 16}, ConvSpec{1, 1, 1, 1}},
		{"im2col strided", []int{2, 12, 12, 8}, []int{3, 3, 8, 16}, ConvSpec{2, 2, 0, 0}},
		{"im2col alexnet conv1", []int{8, 64, 64, 3}, []int{11, 11, 3, 8}, ConvSpec{4, 4, 2, 2}},
		{"im2col mostly padding", []int{8, 2, 2, 16}, []int{3, 3, 16, 16}, ConvSpec{1, 1, 1, 1}},
	}
	for _, c := range cases {
		in := RandNormal(rng, 0, 1, c.in...)
		filt := RandNormal(rng, 0, 1, c.filt...)
		want, err := Conv2D(NewPool(1), in, filt, c.spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Conv2D(NewParallelPool(4, ex), in, filt, c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if d := MaxAbsDiff(got, want); d != 0 {
			t.Fatalf("%s: parallel conv differs (max |Δ| %g)", c.name, d)
		}
		if d := MaxAbsDiff(want, naiveConv2D(in, filt, c.spec)); d != 0 {
			t.Fatalf("%s: conv differs from the direct loop (max |Δ| %g)", c.name, d)
		}
	}
}
