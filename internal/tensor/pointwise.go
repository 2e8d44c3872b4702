package tensor

import (
	"slices"
	"sync"

	"pico/internal/nn"
)

// The float32 pointwise kernel, shaped like qconvForwardGEMM: a 1x1 stride-1
// unpadded conv is out[outC x n] = W[outC x inC] * in[inC x n] over the call's
// n flattened pixels. Per column block the walker copies the input channels'
// row segments into an [inC][cols] panel (no padding taps: a pure copy), sweeps
// every channel block's register tile over it and finishes the block's
// segments while they are in cache. Each output element is bias, then
// + w[ic]*x[ic] for ascending ic, by one lane of one tile: packing, tile width
// and blocking order choose the lane, never the value (DESIGN.md §6).

const (
	// fpwPanelBytes bounds a column block's panel (never below one tile) so it
	// stays in L2 under the tiles; measured flat from 64 KB to 1 MB.
	fpwPanelBytes = 256 << 10
	// fpwRowPad, a cache line between panel rows, keeps rows that would lie a
	// multiple of 4 KB apart out of one L1 set (112x112x32: 13 -> 32 GMAC/s).
	fpwRowPad = 16
)

// fpwVariant is one register tile under the walker: tile computes
// dst[b*dstStride+j] = bias[b] + sum over ascending g < inC of
// wgt[g*4+b]*src[g*srcStride+j], b in [0,4), j in [0,nr); wgt is a 1x1
// kernel's ocBlock.packed, read as is.
type fpwVariant struct {
	name string
	nr   int
	tile func(dst []float32, dstStride int, src []float32, srcStride int, wgt, bias []float32, inC int)
}

// fpwVariants lists the variants this host can run, fastest first, portable
// last; fpwActive is the walker's — chosen here once, reassigned only by the
// tests, which run every entry against the reference kernel. fpwScratchPool
// holds running kernels' scratch: a panel and a staging tile.
var (
	fpwVariants    = append(fpwArchVariants(), &fpwVariant{"portable", 16, fpwTilePortable})
	fpwActive      = fpwVariants[0]
	fpwScratchPool = sync.Pool{New: func() any { return new([]float32) }}
)

// fpwAsm wraps an assembly tile as a variant.
func fpwAsm(name string, nr int, k func(acc *float32, accStride int, src *float32, chanStride int, wgt, bias *float32, inC int)) *fpwVariant {
	return &fpwVariant{name, nr, func(dst []float32, dstStride int, src []float32, srcStride int, wgt, bias []float32, inC int) {
		k(&dst[0], dstStride, &src[0], srcStride, &wgt[0], &bias[0], inC)
	}}
}

// convForwardPointwise is the walker. A unit of work is one column block
// (whole tiles: as many as fit the panel bound, fewer if that idles workers)
// times one slice of the channel blocks (several slices, each re-packing the
// block, only when column blocks are fewer than workers). No output element is
// touched twice, so any par is bit-identical.
func convForwardPointwise(in Tensor, g geom, l *nn.Layer, wts *convWeights, par int) Tensor {
	g.mustCover(l, in.H, in.W)
	v := fpwActive
	outRows, outCols := g.out.Rows.Len(), g.out.Cols.Len()
	n := outRows * outCols
	out := Alloc(l.OutC, outRows, outCols)
	// The closure captures slices and scalars, not the tensors.
	data, src, inC, inW, plane, act := out.Data, in.Data, in.C, in.W, in.H*in.W, l.Act
	// Pixel r*outCols+c is cell first+r*inW+c of every channel plane, in
	// segments of seg contiguous cells: a row, or the whole call when rows abut.
	first, seg := (g.out.Rows.Lo-g.rowLo)*inW+g.out.Cols.Lo-g.colLo, outCols
	if outCols == inW {
		seg = n
	}
	tiles, nb := (n+v.nr-1)/v.nr, len(wts.blocks)
	par = max(par, 1)
	perBlock := max(1, min(fpwPanelBytes/(4*v.nr*inC), (tiles+par-1)/par))
	blocks := (tiles + perBlock - 1) / perBlock
	ocParts := min((par+blocks-1)/blocks, nb) // 1 unless blocks < par
	grain := grainFor(perBlock * v.nr * inC * l.OutC / ocParts)
	parallelForGrain(blocks*ocParts, par, grain, func(lo, hi int) {
		s := fpwScratchPool.Get().(*[]float32)
		defer fpwScratchPool.Put(s)
		size := inC*(perBlock*v.nr+fpwRowPad) + ocBlockWidth*v.nr
		*s = slices.Grow((*s)[:0], size)[:size]
		buf := *s
		loaded := -1
		for u := lo; u < hi; u++ {
			cb, part := u/ocParts, u%ocParts
			x0 := cb * perBlock * v.nr
			cols := min(perBlock*v.nr, n-x0)
			width := (cols+v.nr-1)/v.nr*v.nr + fpwRowPad // panel row stride
			panel, stage := buf[:inC*width], buf[inC*width:]
			if cb != loaded {
				for ic := 0; ic < inC; ic++ {
					row, from := panel[ic*width:][:width], src[ic*plane+first:]
					for p := x0; p < x0+cols; {
						c := p % seg
						k := min(seg-c, x0+cols-p)
						copy(row[p-x0:], from[p/seg*inW+c:][:k])
						p += k
					}
					clear(row[cols:]) // the ragged tile's extra lanes: computed, dropped
				}
				loaded = cb
			}
			for b := part * nb / ocParts; b < (part+1)*nb/ocParts; b++ {
				blk := &wts.blocks[b]
				if blk.packed != nil {
					bias := wts.bias[blk.oc0:][:ocBlockWidth]
					x := 0
					for ; x+v.nr <= cols; x += v.nr {
						v.tile(data[blk.oc0*n+x0+x:], n, panel[x:], width, blk.packed, bias, inC)
					}
					if x < cols {
						v.tile(stage, v.nr, panel[x:], width, blk.packed, bias, inC)
						for i := 0; i < ocBlockWidth; i++ {
							copy(data[(blk.oc0+i)*n+x0+x:][:cols-x], stage[i*v.nr:])
						}
					}
				}
				for oc := blk.oc0; oc < blk.oc0+blk.width; oc++ {
					acc := data[oc*n+x0:][:cols]
					if blk.packed == nil {
						// Ragged or sparse block: per-channel sweep, zero taps skipped.
						for i := range acc {
							acc[i] = wts.bias[oc]
						}
						for ic, w := range wts.w[oc*inC:][:inC] {
							if w != 0 {
								macRowF(acc, panel[ic*width:][:cols], w)
							}
						}
					}
					finishChannel(acc, wts, oc, act)
				}
			}
		}
	})
	return out
}

// fpwTilePortable is the tile contract in plain Go and the generic-host path.
func fpwTilePortable(dst []float32, dstStride int, src []float32, srcStride int, wgt, bias []float32, inC int) {
	d0, d1, d2, d3 := dst[:16], dst[dstStride:][:16], dst[2*dstStride:][:16], dst[3*dstStride:][:16]
	for j := range d0 {
		d0[j], d1[j], d2[j], d3[j] = bias[0], bias[1], bias[2], bias[3]
	}
	for g := 0; g < inC; g++ {
		w := wgt[g*ocBlockWidth:][:ocBlockWidth]
		for j, x := range src[g*srcStride:][:16] {
			d0[j] += w[0] * x
			d1[j] += w[1] * x
			d2[j] += w[2] * x
			d3[j] += w[3] * x
		}
	}
}
