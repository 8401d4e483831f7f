package tensor

import (
	"math/rand"
	"testing"
)

// naiveConv2D is the direct-loop reference convolution used to validate
// the kernel; it sums each output over taps in (ky, kx, c) order.
func naiveConv2D(in, f *Tensor, spec ConvSpec) *Tensor {
	n, h, w, cin := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	kh, kw, _, cout := f.Dim(0), f.Dim(1), f.Dim(2), f.Dim(3)
	oh := ConvOutSize(h, kh, spec.StrideH, spec.PadH)
	ow := ConvOutSize(w, kw, spec.StrideW, spec.PadW)
	out := New(n, oh, ow, cout)
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for co := 0; co < cout; co++ {
					var s float32
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							iy := oy*spec.StrideH - spec.PadH + ky
							ix := ox*spec.StrideW - spec.PadW + kx
							if iy < 0 || iy >= h || ix < 0 || ix >= w {
								continue
							}
							for c := 0; c < cin; c++ {
								s += in.At(b, iy, ix, c) * f.At(ky, kx, c, co)
							}
						}
					}
					out.Set(s, b, oy, ox, co)
				}
			}
		}
	}
	return out
}

func TestConv2DMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := NewPool(2)
	cases := []struct {
		n, h, w, cin, kh, kw, cout int
		spec                       ConvSpec
	}{
		{1, 5, 5, 1, 3, 3, 2, ConvSpec{1, 1, 0, 0}},
		{2, 8, 8, 3, 3, 3, 4, ConvSpec{1, 1, 1, 1}},
		{1, 9, 9, 2, 3, 3, 3, ConvSpec{2, 2, 1, 1}},
		{2, 11, 11, 1, 5, 5, 2, ConvSpec{2, 2, 2, 2}},
		{1, 12, 12, 2, 4, 4, 2, ConvSpec{4, 4, 0, 0}},
	}
	for _, c := range cases {
		in := RandNormal(rng, 0, 1, c.n, c.h, c.w, c.cin)
		f := RandNormal(rng, 0, 1, c.kh, c.kw, c.cin, c.cout)
		got, err := Conv2D(p, in, f, c.spec)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveConv2D(in, f, c.spec)
		if !AllClose(got, want, 1e-4, 1e-4) {
			t.Fatalf("conv mismatch %+v (max diff %g)", c, MaxAbsDiff(got, want))
		}
	}
}

// TestConv2DIm2colMatchesDirect checks the im2col kernel, unit-stride
// and strided, bit for bit against the direct loop in naiveConv2D: the
// GEMM accumulates each output in the same tap order, and the zeros it
// multiplies for out-of-image taps leave every sum unchanged.
func TestConv2DIm2colMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := NewPool(2)
	cases := []struct {
		n, h, w, cin, kh, kw, cout int
		spec                       ConvSpec
	}{
		{2, 9, 9, 16, 3, 3, 16, ConvSpec{1, 1, 1, 1}},   // SAME, padded taps
		{1, 7, 5, 8, 3, 3, 32, ConvSpec{1, 1, 0, 0}},    // VALID, non-square
		{1, 6, 6, 24, 5, 5, 12, ConvSpec{1, 1, 2, 2}},   // window > half image
		{2, 64, 64, 3, 11, 11, 8, ConvSpec{4, 4, 2, 2}}, // alexnet conv1
		{2, 9, 9, 8, 3, 3, 16, ConvSpec{2, 2, 1, 1}},    // 3×3 stride 2
		{8, 2, 2, 16, 3, 3, 16, ConvSpec{1, 1, 1, 1}},   // most taps in padding
		{2, 1, 1, 32, 3, 3, 32, ConvSpec{1, 1, 1, 1}},   // 1×1 image, SAME
		// Padding at least the kernel size: whole kx spans and whole ky
		// rows fall outside the image, on both sides.
		{1, 4, 5, 4, 3, 3, 8, ConvSpec{2, 1, 3, 3}},
	}
	for _, c := range cases {
		in := RandNormal(rng, 0, 1, c.n, c.h, c.w, c.cin)
		f := RandNormal(rng, 0, 1, c.kh, c.kw, c.cin, c.cout)
		oh := ConvOutSize(c.h, c.kh, c.spec.StrideH, c.spec.PadH)
		ow := ConvOutSize(c.w, c.kw, c.spec.StrideW, c.spec.PadW)
		got := Full(99, c.n, oh, ow, c.cout) // dirty, like an arena buffer
		conv2DIm2col(p, got, in, f, c.spec)
		want := naiveConv2D(in, f, c.spec)
		if d := MaxAbsDiff(got, want); d != 0 {
			t.Fatalf("im2col vs direct mismatch %+v (max diff %g)", c, d)
		}
	}
}

// TestConv2D1x1MatMulPath checks the pointwise-convolution fast path.
func TestConv2D1x1MatMulPath(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := NewPool(1)
	in := RandNormal(rng, 0, 1, 2, 6, 6, 8)
	f := RandNormal(rng, 0, 1, 1, 1, 8, 16)
	got, err := Conv2D(p, in, f, ConvSpec{1, 1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := naiveConv2D(in, f, ConvSpec{1, 1, 0, 0})
	if !AllClose(got, want, 1e-4, 1e-4) {
		t.Fatalf("1x1 path mismatch (max diff %g)", MaxAbsDiff(got, want))
	}
}

// TestConvIntoVariantsOverwriteDirtyDestinations feeds dirty buffers
// (as arena slots are) to every Into kernel and checks full overwrite.
func TestConvIntoVariantsOverwriteDirtyDestinations(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := NewPool(1)
	in := RandNormal(rng, 0, 1, 1, 6, 6, 2)
	f := RandNormal(rng, 0, 1, 3, 3, 2, 3)
	spec := ConvSpec{1, 1, 1, 1}
	out, err := Conv2D(p, in, f, spec)
	if err != nil {
		t.Fatal(err)
	}
	dirty := Full(99, out.Shape()...)
	if err := Conv2DInto(p, dirty, in, f, spec); err != nil {
		t.Fatal(err)
	}
	if !AllClose(dirty, out, 0, 0) {
		t.Fatal("Conv2DInto must fully overwrite a dirty destination")
	}

	grad := RandNormal(rng, 0, 1, out.Shape()...)
	gf, err := Conv2DBackFilter(p, in, grad, 3, 3, spec)
	if err != nil {
		t.Fatal(err)
	}
	dirty = Full(99, 3, 3, 2, 3)
	if err := Conv2DBackFilterInto(p, dirty, in, grad, 3, 3, spec); err != nil {
		t.Fatal(err)
	}
	if !AllClose(dirty, gf, 0, 0) {
		t.Fatal("Conv2DBackFilterInto must zero before accumulating")
	}

	gi, err := Conv2DBackInput(p, f, grad, 6, 6, spec)
	if err != nil {
		t.Fatal(err)
	}
	dirty = Full(99, 1, 6, 6, 2)
	if err := Conv2DBackInputInto(p, dirty, f, grad, 6, 6, spec); err != nil {
		t.Fatal(err)
	}
	if !AllClose(dirty, gi, 0, 0) {
		t.Fatal("Conv2DBackInputInto must zero before accumulating")
	}

	mp, err := MaxPool(p, in, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	dirty = Full(99, mp.Shape()...)
	if err := MaxPoolInto(p, dirty, in, 2, 2, 0); err != nil {
		t.Fatal(err)
	}
	if !AllClose(dirty, mp, 0, 0) {
		t.Fatal("MaxPoolInto must fully overwrite a dirty destination")
	}

	ap, err := AvgPool(p, in, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	dirty = Full(99, ap.Shape()...)
	if err := AvgPoolInto(p, dirty, in, 2, 2, 0); err != nil {
		t.Fatal(err)
	}
	if !AllClose(dirty, ap, 0, 0) {
		t.Fatal("AvgPoolInto must zero before accumulating")
	}
}

func TestConv2DChannelMismatch(t *testing.T) {
	p := NewPool(1)
	if _, err := Conv2D(p, New(1, 4, 4, 3), New(3, 3, 2, 4), ConvSpec{}); err == nil {
		t.Fatal("expected channel mismatch error")
	}
}

// Gradient checks: compare BackFilter/BackInput against finite
// differences of a scalar loss L = Σ conv(in, f).
func TestConv2DGradientsFiniteDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := NewPool(1)
	spec := ConvSpec{2, 2, 1, 1}
	in := RandNormal(rng, 0, 0.5, 1, 6, 6, 2)
	f := RandNormal(rng, 0, 0.5, 3, 3, 2, 2)
	out, err := Conv2D(p, in, f, spec)
	if err != nil {
		t.Fatal(err)
	}
	gradOut := Ones(out.Shape()...)

	gf, err := Conv2DBackFilter(p, in, gradOut, 3, 3, spec)
	if err != nil {
		t.Fatal(err)
	}
	gi, err := Conv2DBackInput(p, f, gradOut, 6, 6, spec)
	if err != nil {
		t.Fatal(err)
	}

	loss := func() float64 {
		o, _ := Conv2D(p, in, f, spec)
		var s float64
		for _, v := range o.Data() {
			s += float64(v)
		}
		return s
	}
	const eps = 1e-2
	// Spot-check a handful of coordinates in each gradient.
	for _, i := range []int{0, 3, 7, len(f.Data()) - 1} {
		orig := f.Data()[i]
		f.Data()[i] = orig + eps
		lp := loss()
		f.Data()[i] = orig - eps
		lm := loss()
		f.Data()[i] = orig
		num := (lp - lm) / (2 * eps)
		if d := num - float64(gf.Data()[i]); d > 1e-2 || d < -1e-2 {
			t.Fatalf("filter grad[%d]: analytic %g numeric %g", i, gf.Data()[i], num)
		}
	}
	for _, i := range []int{0, 5, 20, len(in.Data()) - 1} {
		orig := in.Data()[i]
		in.Data()[i] = orig + eps
		lp := loss()
		in.Data()[i] = orig - eps
		lm := loss()
		in.Data()[i] = orig
		num := (lp - lm) / (2 * eps)
		if d := num - float64(gi.Data()[i]); d > 1e-2 || d < -1e-2 {
			t.Fatalf("input grad[%d]: analytic %g numeric %g", i, gi.Data()[i], num)
		}
	}
}

func TestMaxPoolKnown(t *testing.T) {
	p := NewPool(1)
	in := FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 4, 4, 1)
	out, err := MaxPool(p, in, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{6, 8, 14, 16}
	for i := range want {
		if out.Data()[i] != want[i] {
			t.Fatalf("MaxPool = %v want %v", out.Data(), want)
		}
	}
}

func TestMaxPoolGradRoutesToArgmax(t *testing.T) {
	p := NewPool(1)
	in := FromSlice([]float32{
		1, 2,
		3, 4,
	}, 1, 2, 2, 1)
	gradOut := FromSlice([]float32{10}, 1, 1, 1, 1)
	g, err := MaxPoolGrad(p, in, gradOut, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{0, 0, 0, 10}
	for i := range want {
		if g.Data()[i] != want[i] {
			t.Fatalf("MaxPoolGrad = %v want %v", g.Data(), want)
		}
	}
}

func TestAvgPoolKnownAndGrad(t *testing.T) {
	p := NewPool(1)
	in := FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 4, 4, 1)
	out, err := AvgPool(p, in, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{3.5, 5.5, 11.5, 13.5}
	for i := range want {
		if out.Data()[i] != want[i] {
			t.Fatalf("AvgPool = %v want %v", out.Data(), want)
		}
	}
	gradOut := FromSlice([]float32{4, 4, 4, 4}, 1, 2, 2, 1)
	g, err := AvgPoolGrad(p, in.Shape(), gradOut, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range g.Data() {
		if v != 1 {
			t.Fatalf("AvgPoolGrad should spread 4 over 4 cells: %v", g.Data())
		}
	}
}

func TestPoolingWithPadding(t *testing.T) {
	p := NewPool(1)
	rng := rand.New(rand.NewSource(6))
	in := RandNormal(rng, 0, 1, 2, 7, 7, 3)
	out, err := MaxPool(p, in, 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !SameShape(out.Shape(), []int{2, 4, 4, 3}) {
		t.Fatalf("padded maxpool shape %v", out.Shape())
	}
	out2, err := AvgPool(p, in, 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !SameShape(out2.Shape(), []int{2, 4, 4, 3}) {
		t.Fatalf("padded avgpool shape %v", out2.Shape())
	}
}

func TestConvOutSize(t *testing.T) {
	if ConvOutSize(224, 11, 4, 2) != 55 {
		t.Fatal("AlexNet conv1 output size should be 55")
	}
	if ConvOutSize(4, 2, 2, 0) != 2 {
		t.Fatal("basic out size")
	}
	if SamePad(3) != 1 || SamePad(5) != 2 || SamePad(7) != 3 {
		t.Fatal("SamePad")
	}
}
