package tensor

import (
	"slices"
	"sync"

	"pico/internal/nn"
)

// The float32 convolution kernel, shaped like qconvForwardGEMM: a convolution
// is out[outC x n] = W[outC x K] * taps[K x n] over the call's n flattened
// output pixels and the K = icg*kh*kw taps each pixel reads. Per column block
// the walker gathers the block's taps into a [K][cols] panel (convTaps.gather,
// the one gather both precisions share; a 1x1 stride-1 unpadded conv over
// whole rows copies its channel planes), sweeps every channel block's register
// tile over it and finishes the block's segments while they are in cache.
// Each output element is bias, then + w[k]*tap[k] for ascending
// k = (ic, kh, kw), by one lane of one tile: gathering, tile width and
// blocking order choose the lane, never the value. A tap in the padding is a
// gathered zero that the tile multiplies where the reference skips it — an
// exact no-op when every weight is finite and no bias is -0 or NaN
// (convWeights.padExact; the proof is in DESIGN.md §6).

const (
	// fpwPanelBytes bounds a column block's panel (never below one tile) when
	// it is a copy of the channel planes, so it stays in L2 under the tiles;
	// measured flat from 64 KB to 1 MB.
	fpwPanelBytes = 256 << 10
	// fpwGatherBytes is the bound when the block is gathered: measured flat
	// from 8 KB to 256 KB on 3x3 layers at both strides, the stem, 1x7 and
	// ToyChain's layers (EXPERIMENTS.md, PR 25), so it is sized for the
	// scratch it pins — int8's plane-copy bound, an eighth of float's.
	fpwGatherBytes = 32 << 10
	// fpwRowPad, a cache line between panel rows, keeps rows that would lie a
	// multiple of 4 KB apart out of one L1 set (112x112x32: 13 -> 32 GMAC/s).
	fpwRowPad = 16
)

// fpwVariant is one register tile under the walker: tile computes
// dst[b*dstStride+j] = bias[b] + sum over ascending g < k of
// wgt[g*4+b]*src[g*srcStride+j], b in [0,4), j in [0,nr); wgt is an
// ocBlock.packed, read as is.
type fpwVariant struct {
	name string
	nr   int
	tile func(dst []float32, dstStride int, src []float32, srcStride int, wgt, bias []float32, k int)
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
func fpwAsm(name string, nr int, tile func(acc *float32, accStride int, src *float32, chanStride int, wgt, bias *float32, inC int)) *fpwVariant {
	return &fpwVariant{name, nr, func(dst []float32, dstStride int, src []float32, srcStride int, wgt, bias []float32, k int) {
		tile(&dst[0], dstStride, &src[0], srcStride, &wgt[0], &bias[0], k)
	}}
}

// convTaps is the tap matrix of one convolution call over a tile of E: row
// (ic*kh+y)*kw+x of group grp, column p is the input cell that tap (y, x) of
// the group's input channel ic reads for the call's p-th output pixel
// (row-major over g.out), zero where that cell is padding.
type convTaps[E elem] struct {
	data []E // the tile, [C][h][w]
	h, w int
	g    geom
	l    *nn.Layer
	icg  int // input channels per group
	k    int // rows: icg*kh*kw
	// inPlace: a 1x1 stride-1 unpadded conv over whole rows, whose tap rows
	// are the tile's channel planes themselves.
	inPlace bool
}

func newConvTaps[E elem](data []E, c, h, w int, g geom, l *nn.Layer) convTaps[E] {
	icg := c / max(l.Groups, 1)
	return convTaps[E]{data: data, h: h, w: w, g: g, l: l, icg: icg, k: icg * l.KH * l.KW,
		inPlace: l.KH == 1 && l.KW == 1 && l.SH == 1 && l.SW == 1 && l.PH == 0 && l.PW == 0 && g.fullWidth(w, w)}
}

// gather writes columns [x0, x0+cols) of group grp's tap matrix into dst, a
// [k][width] block whose columns past cols it zeroes. In place, each row is
// one copy from its channel plane. Otherwise, per output-row segment and
// horizontal tap, the columns whose tap is inside the map are one span, copied
// row by row (a memmove at stride 1) for every (channel, kernel row) the map
// holds, over a zeroed block.
func (c *convTaps[E]) gather(dst []E, width, grp, x0, cols int) {
	l, g := c.l, &c.g
	plane := c.h * c.w
	if c.inPlace {
		from := c.data[grp*c.icg*plane+(g.out.Rows.Lo-g.rowLo)*c.w+x0:]
		for ic := 0; ic < c.icg; ic++ {
			row := dst[ic*width:][:width]
			clear(row[copy(row, from[ic*plane:][:cols]):])
		}
		return
	}
	clear(dst)
	outCols := g.out.Cols.Len()
	for p, end := x0, x0+cols; p < end; {
		or, c0 := p/outCols, p%outCols
		seg := min(outCols-c0, end-p)
		for kw := 0; kw < l.KW; kw++ {
			// Tap kw of the segment's local column i reads global input
			// column base+i*SW: inside the map for i in [a, b).
			base := g.out.Cols.Lo*l.SW - l.PW + kw
			a, b := c0, c0+seg
			if base+a*l.SW < 0 {
				a = (-base + l.SW - 1) / l.SW
			}
			if last := g.in.W - 1 - base; last >= 0 {
				b = min(b, last/l.SW+1)
			} else {
				b = a
			}
			if a >= b {
				continue
			}
			iw, d := base+a*l.SW-g.colLo, p-x0+a-c0
			for kh := 0; kh < l.KH; kh++ {
				ih := g.rowAt(g.out.Rows.Lo+or, kh, l)
				if ih < 0 {
					continue // zero padding row
				}
				for ic := 0; ic < c.icg; ic++ {
					src := c.data[(grp*c.icg+ic)*plane+ih*c.w+iw:]
					row := dst[((ic*l.KH+kh)*l.KW+kw)*width+d:][:b-a]
					if l.SW == 1 {
						copy(row, src)
						continue
					}
					for i := range row {
						row[i] = src[i*l.SW]
					}
				}
			}
		}
		p += seg
	}
}

// fconv is one call of the walker, read by all of its chunks. It is pooled
// with its method value run bound once, so a call hands parallelForGrain a
// function without allocating a closure over its operands.
type fconv struct {
	taps                              convTaps[float32]
	wts                               *convWeights
	out                               []float32
	v                                 *fpwVariant
	n, perBlock, blocks, ocParts, obg int
	run                               func(lo, hi int) // c.compute
}

var fconvPool = sync.Pool{New: func() any {
	c := new(fconv)
	c.run = c.compute
	return c
}}

// convForwardGEMM is the walker. A unit of work is one group's column block
// (whole tiles: as many as fit the panel bound, fewer if that idles workers)
// times one slice of the group's channel blocks (several slices, each
// re-gathering the block, only when there are fewer column blocks than
// workers). No output element is touched twice, so any par is bit-identical.
func convForwardGEMM(in Tensor, g geom, l *nn.Layer, wts *convWeights, par int) Tensor {
	g.mustCover(l, in.H, in.W)
	outRows, outCols := g.out.Rows.Len(), g.out.Cols.Len()
	out := Alloc(l.OutC, outRows, outCols)
	c := fconvPool.Get().(*fconv)
	*c = fconv{taps: newConvTaps(in.Data, in.C, in.H, in.W, g, l), wts: wts, out: out.Data, v: fpwActive, n: outRows * outCols, run: c.run}
	v, k, groups := c.v, c.taps.k, max(l.Groups, 1)
	ocg := l.OutC / groups
	c.obg = (ocg + ocBlockWidth - 1) / ocBlockWidth // channel blocks per group
	tiles := (c.n + v.nr - 1) / v.nr
	par = max(par, 1)
	bound := fpwGatherBytes
	if c.taps.inPlace {
		bound = fpwPanelBytes
	}
	c.perBlock = max(1, min(bound/(4*v.nr*k), (tiles+par-1)/par))
	c.blocks = (tiles + c.perBlock - 1) / c.perBlock
	c.ocParts = min((par+groups*c.blocks-1)/(groups*c.blocks), c.obg) // 1 unless groups*blocks < par
	parallelForGrain(groups*c.blocks*c.ocParts, par, grainFor(c.perBlock*v.nr*k*ocg/c.ocParts), c.run)
	*c = fconv{run: c.run} // the pool keeps no tensor or weights alive
	fconvPool.Put(c)
	return out
}

// compute computes work units [lo, hi) of the call over a pooled panel.
func (c *fconv) compute(lo, hi int) {
	v, k, wts, data, n, act := c.v, c.taps.k, c.wts, c.out, c.n, c.taps.l.Act
	s := fpwScratchPool.Get().(*[]float32)
	defer fpwScratchPool.Put(s)
	size := k*(c.perBlock*v.nr+fpwRowPad) + ocBlockWidth*v.nr
	*s = slices.Grow((*s)[:0], size)[:size]
	buf := *s
	loaded := -1
	for u := lo; u < hi; u++ {
		gb, part := u/c.ocParts, u%c.ocParts
		grp, cb := gb/c.blocks, gb%c.blocks
		x0 := cb * c.perBlock * v.nr
		cols := min(c.perBlock*v.nr, n-x0)
		width := (cols+v.nr-1)/v.nr*v.nr + fpwRowPad // panel row stride
		panel, stage := buf[:k*width], buf[k*width:]
		if gb != loaded {
			c.taps.gather(panel, width, grp, x0, cols) // the ragged tile's extra lanes: computed, dropped
			loaded = gb
		}
		for b := grp*c.obg + part*c.obg/c.ocParts; b < grp*c.obg+(part+1)*c.obg/c.ocParts; b++ {
			blk := &wts.blocks[b]
			if blk.packed != nil {
				bias := wts.bias[blk.oc0:][:ocBlockWidth]
				x := 0
				for ; x+v.nr <= cols; x += v.nr {
					v.tile(data[blk.oc0*n+x0+x:], n, panel[x:], width, blk.packed, bias, k)
				}
				if x < cols {
					v.tile(stage, v.nr, panel[x:], width, blk.packed, bias, k)
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
					for r, w := range wts.w[oc*k:][:k] {
						if w != 0 {
							macRowF(acc, panel[r*width:][:cols], w)
						}
					}
				}
				finishChannel(acc, wts, oc, act)
			}
		}
	}
}

// fpwTilePortable is the tile contract in plain Go and the generic-host path.
func fpwTilePortable(dst []float32, dstStride int, src []float32, srcStride int, wgt, bias []float32, k int) {
	d0, d1, d2, d3 := dst[:16], dst[dstStride:][:16], dst[2*dstStride:][:16], dst[3*dstStride:][:16]
	for j := range d0 {
		d0[j], d1[j], d2[j], d3[j] = bias[0], bias[1], bias[2], bias[3]
	}
	for g := 0; g < k; g++ {
		w := wgt[g*ocBlockWidth:][:ocBlockWidth]
		for j, x := range src[g*srcStride:][:16] {
			d0[j] += w[0] * x
			d1[j] += w[1] * x
			d2[j] += w[2] * x
			d3[j] += w[3] * x
		}
	}
}
