package tensor

import "fmt"

// ConvSpec describes a 2-D convolution in NHWC layout.
type ConvSpec struct {
	StrideH, StrideW int
	PadH, PadW       int // symmetric zero padding applied to each side
}

// ConvOutSize returns the output spatial size for an input of size in,
// filter size k, stride s and padding p on each side.
func ConvOutSize(in, k, s, p int) int {
	o := (in+2*p-k)/s + 1
	if o < 0 {
		o = 0
	}
	return o
}

// SamePad returns the padding that keeps output = ceil(in/stride) for
// odd filter sizes (TensorFlow "SAME" with symmetric padding).
func SamePad(k int) int { return (k - 1) / 2 }

func (c ConvSpec) check() ConvSpec {
	if c.StrideH < 1 {
		c.StrideH = 1
	}
	if c.StrideW < 1 {
		c.StrideW = 1
	}
	return c
}

// Conv2D computes a 2-D convolution: input (N,H,W,Cin) with filter
// (KH,KW,Cin,Cout) producing (N,OH,OW,Cout). See Conv2DInto for the
// kernel dispatch strategy.
func Conv2D(p *Pool, in, filter *Tensor, spec ConvSpec) (*Tensor, error) {
	spec = spec.check()
	if err := conv2DCheck(in, filter); err != nil {
		return nil, err
	}
	oh := ConvOutSize(in.shape[1], filter.shape[0], spec.StrideH, spec.PadH)
	ow := ConvOutSize(in.shape[2], filter.shape[1], spec.StrideW, spec.PadW)
	out := New(in.shape[0], oh, ow, filter.shape[3])
	conv2DInto(p, out, in, filter, spec)
	return out, nil
}

// Conv2DInto computes the convolution into out, which must have the
// inferred output shape. out may hold arbitrary data; it is fully
// overwritten and must not alias in or filter.
//
// 1×1 unit-stride unpadded convolutions are a pure matrix product and
// dispatch straight to the tiled MatMul kernel. Every other convolution,
// strided or not, lowers to im2col: input patches are gathered into a
// row-major patch matrix (in row blocks bounded by the scratch budget)
// and multiplied against the filter viewed as a (KH·KW·Cin, Cout)
// matrix with the matmul kernel.
func Conv2DInto(p *Pool, out, in, filter *Tensor, spec ConvSpec) error {
	spec = spec.check()
	if err := conv2DCheck(in, filter); err != nil {
		return err
	}
	oh := ConvOutSize(in.shape[1], filter.shape[0], spec.StrideH, spec.PadH)
	ow := ConvOutSize(in.shape[2], filter.shape[1], spec.StrideW, spec.PadW)
	want := []int{in.shape[0], oh, ow, filter.shape[3]}
	if !SameShape(out.shape, want) {
		return fmt.Errorf("tensor: Conv2DInto destination %v, want %v", out.shape, want)
	}
	conv2DInto(p, out, in, filter, spec)
	return nil
}

func conv2DCheck(in, filter *Tensor) error {
	if in.Rank() != 4 || filter.Rank() != 4 {
		return fmt.Errorf("tensor: Conv2D requires NHWC input and KHKWCinCout filter, got %v and %v", in.shape, filter.shape)
	}
	if in.shape[3] != filter.shape[2] {
		return fmt.Errorf("tensor: Conv2D channel mismatch: input %v filter %v", in.shape, filter.shape)
	}
	return nil
}

func conv2DInto(p *Pool, out, in, filter *Tensor, spec ConvSpec) {
	kh, kw, cin, cout := filter.shape[0], filter.shape[1], filter.shape[2], filter.shape[3]
	if kh == 1 && kw == 1 && spec.StrideH == 1 && spec.StrideW == 1 && spec.PadH == 0 && spec.PadW == 0 {
		// A 1×1 convolution is exactly (N·H·W, Cin)·(Cin, Cout).
		rows := in.shape[0] * in.shape[1] * in.shape[2]
		matmulInto(p, out.data, in.data, filter.data, rows, cout, cin, cin, cout, false, false)
		return
	}
	conv2DIm2col(p, out, in, filter, spec)
}

// im2colScratchCap bounds the patch-matrix scratch to 256 KB of
// float32s; larger outputs are processed in row blocks.
const im2colScratchCap = 1 << 16

// conv2DIm2col lowers the convolution to matrix multiplication: each
// output position's receptive field becomes one row of a patch matrix,
// multiplied against the filter reshaped to (KH·KW·Cin, Cout). The
// NHWC output layout makes the product land directly in out.
func conv2DIm2col(p *Pool, out, in, filter *Tensor, spec ConvSpec) {
	kh, kw, cin, cout := filter.shape[0], filter.shape[1], filter.shape[2], filter.shape[3]
	oh, ow := out.shape[1], out.shape[2]
	rows := out.shape[0] * oh * ow
	kk := kh * kw * cin
	blockRows := im2colScratchCap / kk
	if blockRows < 1 {
		blockRows = 1
	}
	if blockRows > rows {
		blockRows = rows
	}
	col := p.scratchBuf(scratchIm2col, blockRows*kk)
	for r0 := 0; r0 < rows; r0 += blockRows {
		r1 := min(rows, r0+blockRows)
		im2colRows(p, col, in, r0, r1, kh, kw, oh, ow, spec)
		matmulInto(p, out.data[r0*cout:r1*cout], col, filter.data,
			r1-r0, cout, kk, kk, cout, false, false)
	}
}

// im2colRows fills col (row-major (r1-r0)×(KH·KW·Cin)) with the
// receptive fields of global output rows [r0, r1). Out-of-image taps
// are written as zeros, so every row is fully overwritten.
func im2colRows(p *Pool, col []float32, in *Tensor, r0, r1, kh, kw, oh, ow int, spec ConvSpec) {
	h, w, cin := in.shape[1], in.shape[2], in.shape[3]
	kk := kh * kw * cin
	id := in.data
	p.For(r1-r0, 16, func(lo, hi int) {
		for rr := lo; rr < hi; rr++ {
			r := r0 + rr
			ox := r % ow
			oy := (r / ow) % oh
			b := r / (ow * oh)
			row := col[rr*kk : (rr+1)*kk]
			iy0 := oy*spec.StrideH - spec.PadH
			ix0 := ox*spec.StrideW - spec.PadW
			// Taps kx in [kx0, kx1) fall inside the image; their
			// Cin-vectors are adjacent in NHWC, so each kernel row is
			// one contiguous copy flanked by zero fill.
			kx0 := min(kw, max(0, -ix0))
			kx1 := max(kx0, min(kw, w-ix0))
			for ky := 0; ky < kh; ky++ {
				seg := row[ky*kw*cin : (ky+1)*kw*cin]
				iy := iy0 + ky
				if iy < 0 || iy >= h {
					clear(seg)
					continue
				}
				clear(seg[:kx0*cin])
				if kx1 > kx0 {
					src := ((b*h+iy)*w + ix0) * cin
					copy(seg[kx0*cin:kx1*cin], id[src+kx0*cin:src+kx1*cin])
				}
				clear(seg[kx1*cin:])
			}
		}
	})
}

// Conv2DBackFilter computes the gradient of Conv2D with respect to the
// filter: input (N,H,W,Cin), gradOut (N,OH,OW,Cout) → (KH,KW,Cin,Cout).
// Parallelized over filter rows (each chunk owns disjoint output cells).
func Conv2DBackFilter(p *Pool, in, gradOut *Tensor, kh, kw int, spec ConvSpec) (*Tensor, error) {
	out := New(kh, kw, in.shape[3], gradOut.shape[3])
	if err := Conv2DBackFilterInto(p, out, in, gradOut, kh, kw, spec); err != nil {
		return nil, err
	}
	return out, nil
}

// Conv2DBackFilterInto accumulates the filter gradient into out after
// zeroing it; out must have shape (kh, kw, Cin, Cout) and must not
// alias in or gradOut.
func Conv2DBackFilterInto(p *Pool, out, in, gradOut *Tensor, kh, kw int, spec ConvSpec) error {
	spec = spec.check()
	n, h, w, cin := in.shape[0], in.shape[1], in.shape[2], in.shape[3]
	gn, oh, ow, cout := gradOut.shape[0], gradOut.shape[1], gradOut.shape[2], gradOut.shape[3]
	if n != gn {
		return fmt.Errorf("tensor: Conv2DBackFilter batch mismatch %v vs %v", in.shape, gradOut.shape)
	}
	if !SameShape(out.shape, []int{kh, kw, cin, cout}) {
		return fmt.Errorf("tensor: Conv2DBackFilterInto destination %v, want %v", out.shape, []int{kh, kw, cin, cout})
	}
	out.Zero()
	id, gd, od := in.data, gradOut.data, out.data
	grain := 1 // kh is small; each row is heavy
	p.For(kh, grain, func(lo, hi int) {
		for ky := lo; ky < hi; ky++ {
			for kx := 0; kx < kw; kx++ {
				fbase := (ky*kw + kx) * cin * cout
				for b := 0; b < n; b++ {
					for oy := 0; oy < oh; oy++ {
						iy := oy*spec.StrideH - spec.PadH + ky
						if iy < 0 || iy >= h {
							continue
						}
						for ox := 0; ox < ow; ox++ {
							ix := ox*spec.StrideW - spec.PadW + kx
							if ix < 0 || ix >= w {
								continue
							}
							ibase := ((b*h+iy)*w + ix) * cin
							gbase := ((b*oh+oy)*ow + ox) * cout
							grow := gd[gbase : gbase+cout]
							for c := 0; c < cin; c++ {
								v := id[ibase+c]
								frow := od[fbase+c*cout : fbase+(c+1)*cout]
								for co := 0; co < cout; co++ {
									frow[co] += v * grow[co]
								}
							}
						}
					}
				}
			}
		}
	})
	return nil
}

// Conv2DBackInput computes the gradient of Conv2D with respect to the
// input: filter (KH,KW,Cin,Cout), gradOut (N,OH,OW,Cout) → (N,H,W,Cin).
// Parallelized over batch entries (disjoint output regions).
func Conv2DBackInput(p *Pool, filter, gradOut *Tensor, h, w int, spec ConvSpec) (*Tensor, error) {
	out := New(gradOut.shape[0], h, w, filter.shape[2])
	if err := Conv2DBackInputInto(p, out, filter, gradOut, h, w, spec); err != nil {
		return nil, err
	}
	return out, nil
}

// Conv2DBackInputInto accumulates the input gradient into out after
// zeroing it; out must have shape (N, h, w, Cin) and must not alias
// filter or gradOut.
func Conv2DBackInputInto(p *Pool, out, filter, gradOut *Tensor, h, w int, spec ConvSpec) error {
	spec = spec.check()
	kh, kw, cin, cout := filter.shape[0], filter.shape[1], filter.shape[2], filter.shape[3]
	n, oh, ow, gcout := gradOut.shape[0], gradOut.shape[1], gradOut.shape[2], gradOut.shape[3]
	if cout != gcout {
		return fmt.Errorf("tensor: Conv2DBackInput channel mismatch filter %v gradOut %v", filter.shape, gradOut.shape)
	}
	if !SameShape(out.shape, []int{n, h, w, cin}) {
		return fmt.Errorf("tensor: Conv2DBackInputInto destination %v, want %v", out.shape, []int{n, h, w, cin})
	}
	out.Zero()
	fd, gd, od := filter.data, gradOut.data, out.data
	p.For(n, 1, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			for oy := 0; oy < oh; oy++ {
				iy0 := oy*spec.StrideH - spec.PadH
				for ox := 0; ox < ow; ox++ {
					ix0 := ox*spec.StrideW - spec.PadW
					gbase := ((b*oh+oy)*ow + ox) * cout
					grow := gd[gbase : gbase+cout]
					for ky := 0; ky < kh; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < kw; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= w {
								continue
							}
							ibase := ((b*h+iy)*w + ix) * cin
							fbase := (ky*kw + kx) * cin * cout
							for c := 0; c < cin; c++ {
								frow := fd[fbase+c*cout : fbase+(c+1)*cout]
								var s float32
								for co := 0; co < cout; co++ {
									s += frow[co] * grow[co]
								}
								od[ibase+c] += s
							}
						}
					}
				}
			}
		}
	})
	return nil
}

// MaxPool computes max pooling over (N,H,W,C) with window k and stride
// s (symmetric padding p, padded cells treated as -inf).
func MaxPool(p *Pool, in *Tensor, k, s, pad int) (*Tensor, error) {
	if in.Rank() != 4 {
		return nil, fmt.Errorf("tensor: MaxPool requires NHWC input, got %v", in.shape)
	}
	oh := ConvOutSize(in.shape[1], k, s, pad)
	ow := ConvOutSize(in.shape[2], k, s, pad)
	out := New(in.shape[0], oh, ow, in.shape[3])
	if err := MaxPoolInto(p, out, in, k, s, pad); err != nil {
		return nil, err
	}
	return out, nil
}

// poolOutCheck validates a pooling destination against the inferred
// output shape.
func poolOutCheck(name string, out, in *Tensor, k, s, pad int) error {
	if in.Rank() != 4 {
		return fmt.Errorf("tensor: %s requires NHWC input, got %v", name, in.shape)
	}
	want := []int{in.shape[0], ConvOutSize(in.shape[1], k, s, pad), ConvOutSize(in.shape[2], k, s, pad), in.shape[3]}
	if !SameShape(out.shape, want) {
		return fmt.Errorf("tensor: %s destination %v, want %v", name, out.shape, want)
	}
	return nil
}

// MaxPoolInto computes max pooling into out, fully overwriting it.
func MaxPoolInto(p *Pool, out, in *Tensor, k, s, pad int) error {
	if err := poolOutCheck("MaxPoolInto", out, in, k, s, pad); err != nil {
		return err
	}
	n, h, w, c := in.shape[0], in.shape[1], in.shape[2], in.shape[3]
	oh, ow := out.shape[1], out.shape[2]
	id, od := in.data, out.data
	rows := n * oh
	p.For(rows, 4, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			b := r / oh
			oy := r % oh
			for ox := 0; ox < ow; ox++ {
				obase := ((b*oh+oy)*ow + ox) * c
				for ch := 0; ch < c; ch++ {
					best := float32(negInf)
					for ky := 0; ky < k; ky++ {
						iy := oy*s - pad + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ox*s - pad + kx
							if ix < 0 || ix >= w {
								continue
							}
							v := id[((b*h+iy)*w+ix)*c+ch]
							if v > best {
								best = v
							}
						}
					}
					od[obase+ch] = best
				}
			}
		}
	})
	return nil
}

const negInf = float32(-3.4e38)

// MaxPoolGrad routes gradOut back to the argmax input cell of each
// pooling window (ties go to the first maximum, matching MaxPool).
func MaxPoolGrad(p *Pool, in, gradOut *Tensor, k, s, pad int) (*Tensor, error) {
	out := New(in.shape...)
	if err := MaxPoolGradInto(p, out, in, gradOut, k, s, pad); err != nil {
		return nil, err
	}
	return out, nil
}

// MaxPoolGradInto accumulates the pooling gradient into out after
// zeroing it; out must have the input's shape.
func MaxPoolGradInto(p *Pool, out, in, gradOut *Tensor, k, s, pad int) error {
	if !SameShape(out.shape, in.shape) {
		return fmt.Errorf("tensor: MaxPoolGradInto destination %v, want %v", out.shape, in.shape)
	}
	if err := poolOutCheck("MaxPoolGradInto", gradOut, in, k, s, pad); err != nil {
		return err
	}
	n, h, w, c := in.shape[0], in.shape[1], in.shape[2], in.shape[3]
	oh, ow := gradOut.shape[1], gradOut.shape[2]
	out.Zero()
	id, gd, od := in.data, gradOut.data, out.data
	// Pooling windows can overlap when s < k, so parallelize over batch
	// entries only (disjoint input regions).
	p.For(n, 1, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					gbase := ((b*oh+oy)*ow + ox) * c
					for ch := 0; ch < c; ch++ {
						best := float32(negInf)
						bi := -1
						for ky := 0; ky < k; ky++ {
							iy := oy*s - pad + ky
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < k; kx++ {
								ix := ox*s - pad + kx
								if ix < 0 || ix >= w {
									continue
								}
								off := ((b*h+iy)*w+ix)*c + ch
								if id[off] > best {
									best = id[off]
									bi = off
								}
							}
						}
						if bi >= 0 {
							od[bi] += gd[gbase+ch]
						}
					}
				}
			}
		}
	})
	return nil
}

// AvgPool computes average pooling over valid (unpadded) cells.
func AvgPool(p *Pool, in *Tensor, k, s, pad int) (*Tensor, error) {
	if in.Rank() != 4 {
		return nil, fmt.Errorf("tensor: AvgPool requires NHWC input, got %v", in.shape)
	}
	oh := ConvOutSize(in.shape[1], k, s, pad)
	ow := ConvOutSize(in.shape[2], k, s, pad)
	out := New(in.shape[0], oh, ow, in.shape[3])
	if err := AvgPoolInto(p, out, in, k, s, pad); err != nil {
		return nil, err
	}
	return out, nil
}

// AvgPoolInto computes average pooling into out after zeroing it.
func AvgPoolInto(p *Pool, out, in *Tensor, k, s, pad int) error {
	if err := poolOutCheck("AvgPoolInto", out, in, k, s, pad); err != nil {
		return err
	}
	n, h, w, c := in.shape[0], in.shape[1], in.shape[2], in.shape[3]
	oh, ow := out.shape[1], out.shape[2]
	out.Zero()
	id, od := in.data, out.data
	rows := n * oh
	p.For(rows, 4, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			b := r / oh
			oy := r % oh
			for ox := 0; ox < ow; ox++ {
				obase := ((b*oh+oy)*ow + ox) * c
				var cnt float32
				// Count once per window; same for all channels.
				for ky := 0; ky < k; ky++ {
					iy := oy*s - pad + ky
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < k; kx++ {
						ix := ox*s - pad + kx
						if ix >= 0 && ix < w {
							cnt++
						}
					}
				}
				if cnt == 0 {
					continue
				}
				for ky := 0; ky < k; ky++ {
					iy := oy*s - pad + ky
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < k; kx++ {
						ix := ox*s - pad + kx
						if ix < 0 || ix >= w {
							continue
						}
						ibase := ((b*h+iy)*w + ix) * c
						for ch := 0; ch < c; ch++ {
							od[obase+ch] += id[ibase+ch]
						}
					}
				}
				inv := 1 / cnt
				for ch := 0; ch < c; ch++ {
					od[obase+ch] *= inv
				}
			}
		}
	})
	return nil
}

// AvgPoolGrad distributes gradOut uniformly over each window's valid
// input cells.
func AvgPoolGrad(p *Pool, inShape []int, gradOut *Tensor, k, s, pad int) (*Tensor, error) {
	out := New(inShape...)
	if err := AvgPoolGradInto(p, out, gradOut, k, s, pad); err != nil {
		return nil, err
	}
	return out, nil
}

// AvgPoolGradInto accumulates the average-pooling gradient into out
// (whose shape is the original input shape) after zeroing it.
func AvgPoolGradInto(p *Pool, out, gradOut *Tensor, k, s, pad int) error {
	if out.Rank() != 4 || gradOut.Rank() != 4 {
		return fmt.Errorf("tensor: AvgPoolGradInto wants NHWC tensors, got %v and %v", out.shape, gradOut.shape)
	}
	if err := poolOutCheck("AvgPoolGradInto", gradOut, out, k, s, pad); err != nil {
		return err
	}
	n, h, w, c := out.shape[0], out.shape[1], out.shape[2], out.shape[3]
	oh, ow := gradOut.shape[1], gradOut.shape[2]
	out.Zero()
	gd, od := gradOut.data, out.data
	p.For(n, 1, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					gbase := ((b*oh+oy)*ow + ox) * c
					var cnt float32
					for ky := 0; ky < k; ky++ {
						iy := oy*s - pad + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ox*s - pad + kx
							if ix >= 0 && ix < w {
								cnt++
							}
						}
					}
					if cnt == 0 {
						continue
					}
					inv := 1 / cnt
					for ky := 0; ky < k; ky++ {
						iy := oy*s - pad + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ox*s - pad + kx
							if ix < 0 || ix >= w {
								continue
							}
							ibase := ((b*h+iy)*w + ix) * c
							for ch := 0; ch < c; ch++ {
								od[ibase+ch] += gd[gbase+ch] * inv
							}
						}
					}
				}
			}
		}
	})
	return nil
}
