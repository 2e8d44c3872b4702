package tensor

import (
	"slices"
	"sync"

	"pico/internal/nn"
)

// The convolution GEMM driver, written once over the element type: a
// convolution is out[outC x n] = W[outC x K] * taps[K x n] over the call's n
// flattened output pixels and the K = icg*kh*kw taps each pixel reads. Per
// column block the driver loads the block's taps, sweeps every channel
// block's register tile over them and lets the dtype finish the block's
// segments while they are in cache. Only the driver is generic: tiles, asm
// and epilogues are concrete functions of a dtype's gemmDType (fgemm, qgemm
// below), reached once per block, never per element. Gathering, tile width
// and blocking choose which lane computes a pixel, never its value
// (DESIGN.md §6, §8).

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

// planes returns group grp's first channel plane from the call's pixel x0 on.
func (c *convTaps[E]) planes(grp, x0 int) []E {
	return c.data[grp*c.icg*c.h*c.w+(c.g.out.Rows.Lo-c.g.rowLo)*c.w+x0:]
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
		from := c.planes(grp, x0)
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
			a, b := tapSpan(base, l.SW, g.in.W, c0, c0+seg)
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

// gemmCols is a loaded operand: adjacent nr-column tiles of k tap rows (row
// g, column j of tile t is src[g*rowStride+t*nr+j]), and its packed panel.
type gemmCols[E elem] struct {
	src       []E
	rowStride int
	k         int
	panel     []uint8
}

// gemmScratch is one running chunk's pooled scratch: the loaded column block
// (gathered taps, packed panel) as its whole tiles and its ragged last one,
// and staging rows for tiles that cannot store straight into the output.
type gemmScratch[E elem] struct {
	taps        []E
	panel       []uint8
	stage       []E
	whole, last gemmCols[E]
}

// gemmDType is what one element type supplies to the driver, W being its
// weights and V its tile variant. A column block holds as many whole tiles
// as fit planeBytes (in place) or gatherBytes (gathered) at tapBytes a tap,
// never fewer than one; gathered rows lie rowPad columns more than the tiles
// apart; inPlace lets tiles read a 1x1 layer's channel planes where they
// lie; pack (optional) packs a loaded block of cols columns; tile stores
// `tiles` adjacent tiles of operand a for channel block ob (first channel
// oc0, width real ones) as mr rows dstStride apart; finish (nil when the
// tile's epilogue is fused) runs over a block's stored segments.
type gemmDType[E elem, W, V any] struct {
	active                                    **V // the variant run (tests reassign it)
	shape                                     func(v *V) (mr, nr int)
	planeBytes, gatherBytes, tapBytes, rowPad int
	inPlace                                   bool
	pack                                      func(c *gemmCall[E, W, V], s *gemmScratch[E], cols int)
	tile                                      func(c *gemmCall[E, W, V], a *gemmCols[E], dst []E, dstStride, ob, oc0, width, tiles int)
	finish                                    func(c *gemmCall[E, W, V], oc0, width, x0, cols int)

	calls, scratch sync.Pool // *gemmCall, *gemmScratch
}

// gemmCall is one call of the driver, read by all of its chunks; pooled
// with its method value run bound once (see pooled).
type gemmCall[E elem, W, V any] struct {
	d                                              *gemmDType[E, W, V]
	taps                                           convTaps[E]
	w                                              *W
	v                                              *V
	out                                            []E
	mr, nr, n, ocg, obg, perBlock, blocks, ocParts int
	run                                            func(lo, hi int) // c.compute
}

// gemm is the driver. A unit of work is one group's column block (fewer
// tiles than the bound if that idles workers) times one slice of the group's
// channel blocks (several slices, each re-loading the block, only when there
// are fewer column blocks than workers). No output element is touched twice,
// so any par is bit-identical.
func gemm[E elem, W, V any](d *gemmDType[E, W, V], in []E, c, h, w int, g geom, l *nn.Layer, wts *W, par int) kout[E] {
	g.mustCover(l, h, w)
	outRows, outCols := g.out.Rows.Len(), g.out.Cols.Len()
	out := allocOut[E](l.OutC, outRows, outCols)
	call := pooled[gemmCall[E, W, V]](&d.calls)
	v := *d.active
	mr, nr := d.shape(v)
	groups := max(l.Groups, 1)
	ocg := l.OutC / groups
	*call = gemmCall[E, W, V]{d: d, taps: newConvTaps(in, c, h, w, g, l), w: wts, v: v, out: out.data,
		mr: mr, nr: nr, n: outRows * outCols, ocg: ocg, obg: (ocg + mr - 1) / mr, run: call.run}
	if call.run == nil {
		call.run = call.compute
	}
	k := call.taps.k
	tiles := (call.n + nr - 1) / nr
	par = max(par, 1)
	bound := d.gatherBytes
	if call.taps.inPlace {
		bound = d.planeBytes
	}
	call.perBlock = max(1, min(bound/(nr*k*d.tapBytes), (tiles+par-1)/par))
	call.blocks = (tiles + call.perBlock - 1) / call.perBlock
	call.ocParts = min((par+groups*call.blocks-1)/(groups*call.blocks), call.obg) // 1 unless groups*blocks < par
	parallelForGrain(groups*call.blocks*call.ocParts, par, grainFor(call.perBlock*nr*k*ocg/call.ocParts), call.run)
	*call = gemmCall[E, W, V]{run: call.run} // the pool keeps no tensor or weights alive
	d.calls.Put(call)
	return out
}

// compute computes work units [lo, hi) of the call.
func (c *gemmCall[E, W, V]) compute(lo, hi int) {
	s := pooled[gemmScratch[E]](&c.d.scratch)
	defer c.d.scratch.Put(s)
	loaded := -1
	for u := lo; u < hi; u++ {
		gb, part := u/c.ocParts, u%c.ocParts
		grp, cb := gb/c.blocks, gb%c.blocks
		x0 := cb * c.perBlock * c.nr
		cols := min(c.perBlock*c.nr, c.n-x0)
		whole := cols / c.nr * c.nr
		if gb != loaded {
			c.load(s, grp, x0, cols)
			loaded = gb
		}
		for b := part * c.obg / c.ocParts; b < (part+1)*c.obg/c.ocParts; b++ {
			ob, oc0, width := grp*c.obg+b, grp*c.ocg+b*c.mr, min(c.mr, c.ocg-b*c.mr)
			if whole > 0 {
				c.sweep(s, &s.whole, ob, oc0, width, x0, whole)
			}
			if whole < cols {
				c.sweep(s, &s.last, ob, oc0, width, x0+whole, cols-whole)
			}
			if c.d.finish != nil {
				c.d.finish(c, oc0, width, x0, cols)
			}
		}
	}
}

// load makes columns [x0, x0+cols) of group grp's taps s.whole and s.last,
// whole tiles both: in place for a dtype that reads planes where they lie
// and a block of whole tiles, else gathered (a ragged tile's extra columns
// are zeros).
func (c *gemmCall[E, W, V]) load(s *gemmScratch[E], grp, x0, cols int) {
	t := &c.taps
	if t.inPlace && c.d.inPlace && cols%c.nr == 0 {
		s.whole = gemmCols[E]{src: t.planes(grp, x0), rowStride: t.h * t.w, k: t.k}
	} else {
		width := (cols+c.nr-1)/c.nr*c.nr + c.d.rowPad
		s.taps = slices.Grow(s.taps[:0], t.k*width)[:t.k*width]
		t.gather(s.taps, width, grp, x0, cols)
		s.whole = gemmCols[E]{src: s.taps, rowStride: width, k: t.k}
	}
	s.last = s.whole
	s.last.src = s.whole.src[cols/c.nr*c.nr:]
	if c.d.pack != nil {
		c.d.pack(c, s, cols)
	}
}

// sweep runs the tiles of operand a — `valid` real columns from flattened
// column x — for channel block ob, `width` real channels from oc0. Whole
// tiles of a whole block store straight into the output; a ragged block or
// tile goes through staging rows, whose extra rows and columns are computed
// and dropped.
func (c *gemmCall[E, W, V]) sweep(s *gemmScratch[E], a *gemmCols[E], ob, oc0, width, x, valid int) {
	tiles := (valid + c.nr - 1) / c.nr
	if width == c.mr && valid == tiles*c.nr {
		c.d.tile(c, a, c.out[oc0*c.n+x:], c.n, ob, oc0, width, tiles)
		return
	}
	stride := tiles * c.nr
	s.stage = slices.Grow(s.stage[:0], c.mr*stride)[:c.mr*stride]
	c.d.tile(c, a, s.stage, stride, ob, oc0, width, tiles)
	for b := 0; b < width; b++ {
		copy(c.out[(oc0+b)*c.n+x:][:valid], s.stage[b*stride:])
	}
}

// The float32 side: a block is always gathered (a 1x1 layer's planes copied,
// rows fpwRowPad apart) into a panel the fpwVariant tiles sweep as is, and
// finished in cache by finishChannel. Each output element is bias, then
// acc = fma32(w[k], tap[k], acc) for ascending k = (ic, kh, kw), by one lane
// of one tile; a gathered padding zero is an exact no-op when every weight
// is finite and no bias is -0 or NaN (convWeights.padExact; proof in
// DESIGN.md §6).

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

// fpwVariant is one register tile under the driver: tile computes
// dst[b*dstStride+j] = bias[b] chained through fma32(wgt[g*4+b],
// src[g*srcStride+j], acc) for ascending g < k, b in [0,4), j in [0,nr); wgt
// is an ocBlock.packed, read as is.
type fpwVariant struct {
	name string
	nr   int
	tile func(dst []float32, dstStride int, src []float32, srcStride int, wgt, bias []float32, k int)
}

// fpwVariants lists the variants this host can run, fastest first, portable
// last; fpwActive is the driver's — chosen here once, reassigned only by the
// tests, which run every entry against the reference kernel.
var (
	fpwVariants = append(fpwArchVariants(), &fpwVariant{"portable", 16, fpwTilePortable})
	fpwActive   = fpwVariants[0]
)

// fpwAsm wraps an assembly tile as a variant.
func fpwAsm(name string, nr int, tile func(acc *float32, accStride int, src *float32, chanStride int, wgt, bias *float32, inC int)) *fpwVariant {
	return &fpwVariant{name, nr, func(dst []float32, dstStride int, src []float32, srcStride int, wgt, bias []float32, k int) {
		tile(&dst[0], dstStride, &src[0], srcStride, &wgt[0], &bias[0], k)
	}}
}

// fgemm is float32's side of the GEMM driver; its finish applies the
// batch-norm affine and the activation to a channel block's stored segments.
var fgemm = gemmDType[float32, convWeights, fpwVariant]{
	active:      &fpwActive,
	shape:       func(v *fpwVariant) (int, int) { return ocBlockWidth, v.nr },
	planeBytes:  fpwPanelBytes,
	gatherBytes: fpwGatherBytes,
	tapBytes:    4,
	rowPad:      fpwRowPad,
	tile:        fpwTile,
	finish: func(c *gemmCall[float32, convWeights, fpwVariant], oc0, width, x0, cols int) {
		for oc := oc0; oc < oc0+width; oc++ {
			c.w.finishChannel(c.out[oc*c.n+x0:][:cols], oc, c.taps.l.Act)
		}
	},
}

// convForwardGEMM runs the GEMM driver over float32.
func convForwardGEMM(in Tensor, g geom, l *nn.Layer, wts *convWeights, par int) Tensor {
	return ftensor(gemm(&fgemm, in.Data, in.C, in.H, in.W, g, l, wts, par))
}

// fpwTile runs the active variant's tile over a packed block's tiles. An
// unpacked block (sparse, or a narrow group's) sweeps its channels one at a
// time in plain Go, skipping zero weights as the reference does.
func fpwTile(c *gemmCall[float32, convWeights, fpwVariant], a *gemmCols[float32], dst []float32, dstStride, ob, oc0, width, tiles int) {
	v, wts, k := c.v, c.w, a.k
	if packed := wts.blocks[ob].packed; packed != nil {
		bias := wts.bias[oc0:][:ocBlockWidth]
		for t := 0; t < tiles; t++ {
			v.tile(dst[t*v.nr:], dstStride, a.src[t*v.nr:], a.rowStride, packed, bias, k)
		}
		return
	}
	for b := 0; b < width; b++ {
		acc := dst[b*dstStride:][:tiles*v.nr]
		for i := range acc {
			acc[i] = wts.bias[oc0+b]
		}
		for r, w := range wts.w[(oc0+b)*k:][:k] {
			if w != 0 {
				for i, x := range a.src[r*a.rowStride:][:len(acc)] {
					acc[i] = fma32(w, x, acc[i])
				}
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
			d0[j] = fma32(w[0], x, d0[j])
			d1[j] = fma32(w[1], x, d1[j])
			d2[j] = fma32(w[2], x, d2[j])
			d3[j] = fma32(w[3], x, d3[j])
		}
	}
}

// The int8 side: a block's taps, gathered (padding zeros change no integer
// accumulator) or in place (a 1x1 layer, ~94% of MobileNetV1's MACs), are
// packed ONCE into a u8 quad panel (each tap shifted by +128) that every
// channel block's tile sweeps, requantizing straight into the output. Each
// accumulator starts from its channel's seed, -128 times the sum of its
// weights, which cancels the shift; int32 sums wrap associatively, so every
// variant and blocking yields the reference's accumulators bit for bit
// (DESIGN.md §8).

const (
	// qpwMR is the channel extent of a weight-panel block and packing tile.
	qpwMR = 8
	// qpwPanelBytes bounds the packed panel of one column block (never below
	// one tile) so it stays L1-resident while the channel blocks' weights
	// stream past. Measured flat from 16 KB to 256 KB on the reference host:
	// it is sized for the scratch it pins, not for speed.
	qpwPanelBytes = 32 << 10
	// qpwGatherBytes is the bound when the block is gathered: the gather
	// copies one output-row segment per tap row at a time, so a block of
	// several output rows makes fewer, longer copies (10-15% of a 576-tap
	// 3x3 layer between 32 KB and 128 KB; flat above, and flat for the
	// in-place source, which copies nothing).
	qpwGatherBytes = 128 << 10
)

// qpwVariant is one register-tile implementation under the driver; every
// tile is qpwMR output channels x nr flattened columns.
type qpwVariant struct {
	name string
	nr   int
	// pack packs `tiles` adjacent whole tiles of a.src into a.panel.
	pack func(a *qpwCols, tiles int)
	// tile computes, requantizes and stores `tiles` adjacent tiles of weight
	// block ob, whose first output channel is oc0:
	// dst[b*dstStride+t*nr+j] for b in [0,qpwMR), j in [0,nr).
	tile func(dst []int8, dstStride int, a *qpwCols, qw *qconvWeights, ob, oc0, tiles int, act nn.Activation)
}

// qpwCols is the int8 operand of a tile sweep; once packed, the 4 bytes at
// panel[((t*quads+q)*nr+j)*4:] are column j of tile t's rows 4q..4q+3, each
// XOR 0x80 (as u8, the tap plus 128), and a row past the last is a shifted
// zero, 0x80.
type qpwCols = gemmCols[int8]

func nquads(k int) int { return (k + 3) / 4 }

// qpwVariants lists the variants this host can run, fastest first, portable
// last; qpwActive is the one the driver uses — chosen here once, reassigned
// only by the tests, which run every entry against the reference kernels.
var (
	qpwVariants = append(qpwArchVariants(), &qpwVariant{name: "portable", nr: 16, pack: qpwPackPortable, tile: qpwTilePortable})
	qpwActive   = qpwVariants[0]
)

// qgemm is int8's side of the GEMM driver.
var qgemm = gemmDType[int8, qconvWeights, qpwVariant]{
	active:      &qpwActive,
	shape:       func(v *qpwVariant) (int, int) { return qpwMR, v.nr },
	planeBytes:  qpwPanelBytes,
	gatherBytes: qpwGatherBytes,
	tapBytes:    1,
	inPlace:     true,
	pack:        qpwPanel,
	tile: func(c *gemmCall[int8, qconvWeights, qpwVariant], a *qpwCols, dst []int8, dstStride, ob, oc0, _, tiles int) {
		c.v.tile(dst, dstStride, a, c.w, ob, oc0, tiles, c.taps.l.Act)
	},
}

// qconvForwardGEMM runs the GEMM driver over int8.
func qconvForwardGEMM(in QTensor, g geom, l *nn.Layer, qw *qconvWeights, par int) QTensor {
	return qtensor(gemm(&qgemm, in.Data, in.C, in.H, in.W, g, l, qw, par), qw.scale)
}

// qpwPanel packs a loaded block's tiles into the quad panel, once.
func qpwPanel(c *gemmCall[int8, qconvWeights, qpwVariant], s *gemmScratch[int8], cols int) {
	v := c.v
	per, tiles := 4*v.nr*nquads(s.whole.k), (cols+v.nr-1)/v.nr // per: bytes in one packed tile
	s.panel = slices.Grow(s.panel[:0], tiles*per)[:tiles*per]
	s.whole.panel = s.panel
	v.pack(&s.whole, tiles)
	s.last.panel = s.panel[cols/v.nr*per:]
}

// qpwPackPortable is the pack step in plain Go: the layout contract the
// vector routine is tested against.
func qpwPackPortable(a *qpwCols, tiles int) {
	const nr = 16
	quads := nquads(a.k)
	for t := 0; t < tiles; t++ {
		for q := 0; q < quads; q++ {
			dst := a.panel[(t*quads+q)*nr*4:][:nr*4]
			for i := range dst {
				dst[i] = 0x80
			}
			for c := 4 * q; c < min(4*q+4, a.k); c++ {
				for j, v := range a.src[c*a.rowStride+t*nr:][:nr] {
					dst[4*j+c%4] = uint8(v) ^ 0x80
				}
			}
		}
	}
}

// qpwTilePortable is the tile contract in plain Go and the generic-host
// path: per tile, qpwMR x 16 wrapping int32 accumulators from the channel
// seeds over every quad of the panel, then the shared requantize epilogue
// per channel row.
func qpwTilePortable(dst []int8, dstStride int, a *qpwCols, qw *qconvWeights, ob, oc0, tiles int, act nn.Activation) {
	const nr = 16
	quads := nquads(a.k)
	w := qw.pw[ob*quads*qpwMR:][:quads*qpwMR]
	seed := qw.seed[oc0 : oc0+qpwMR]
	scale, bias := qw.effScale[oc0:oc0+qpwMR], qw.effBias[oc0:oc0+qpwMR]
	var acc [qpwMR][nr]int32
	for t := 0; t < tiles; t++ {
		for b := range acc {
			for j := range acc[b] {
				acc[b][j] = seed[b]
			}
		}
		for q := 0; q < quads; q++ {
			col := (*[4 * nr]uint8)(a.panel[(t*quads+q)*nr*4:])
			for b, wq := range w[q*qpwMR:][:qpwMR] {
				w0, w1, w2, w3 := int32(int8(wq)), int32(int8(wq>>8)), int32(int8(wq>>16)), wq>>24
				row := &acc[b]
				for j := range row {
					u := col[4*j:][:4]
					row[j] += w0*int32(u[0]) + w1*int32(u[1]) + w2*int32(u[2]) + w3*int32(u[3])
				}
			}
		}
		for b := range acc {
			requantRow(dst[b*dstStride+t*nr:][:nr], acc[b][:], scale[b], bias[b], act)
		}
	}
}
