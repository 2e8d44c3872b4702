package tensor

import (
	"slices"
	"sync"

	"pico/internal/nn"
)

// The convolution GEMM driver, written once over the element type: a
// convolution is out[outC x n] = W[outC x K] * taps[K x n] over the call's n
// flattened output pixels and the K = icg*kh*kw taps each pixel reads. Per
// column block the driver loads and packs the block's taps once and sweeps
// every channel block's register tile over them, which finishes its outputs
// in registers. Only the driver is generic: tiles, asm
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
// block of width columns (whole tiles) whose column j of tap row g lies at
// g*row + j/row*tile + j%row — in rows (row = width) or tile by tile (row =
// nr, tile = k*nr) — and zeroes its columns past cols. In place, each row's
// run is one copy from its channel plane. Otherwise, per output-row segment
// and horizontal tap, the columns whose tap is inside the map are one span,
// copied run by run (a memmove at stride 1) for every (channel, kernel row)
// the map holds, over a zeroed block.
func (c *convTaps[E]) gather(dst []E, row, tile, grp, x0, cols, width int) {
	l, g := c.l, &c.g
	plane := c.h * c.w
	if c.inPlace {
		from := c.planes(grp, x0)
		for ic := 0; ic < c.icg; ic++ {
			for j := 0; j < width; j += row {
				run := dst[ic*row+j/row*tile:][:row]
				clear(run[copy(run, from[ic*plane+j:][:cols-j]):])
			}
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
			// column base+i*SW: inside the map for i in [a, b). Its columns
			// [j, j+m) in the block are one run, at `at` in tap row 0.
			base := g.out.Cols.Lo*l.SW - l.PW + kw
			a, b := tapSpan(base, l.SW, g.in.W, c0, c0+seg)
			for j, iw := p-x0+a-c0, base+a*l.SW-g.colLo; a < b; {
				m := min(b-a, row-j%row)
				at := kw*row + j/row*tile + j%row
				for kh := 0; kh < l.KH; kh++ {
					ih := g.rowAt(g.out.Rows.Lo+or, kh, l)
					if ih < 0 {
						continue // zero padding row
					}
					for ic := 0; ic < c.icg; ic++ {
						src := c.data[(grp*c.icg+ic)*plane+ih*c.w+iw:]
						run := dst[(ic*l.KH+kh)*l.KW*row+at:][:m]
						if l.SW == 1 {
							copy(run, src)
							continue
						}
						for i := range run {
							run[i] = src[i*l.SW]
						}
					}
				}
				a, j, iw = a+m, j+m, iw+m*l.SW
			}
		}
		p += seg
	}
}

// gemmCols is a loaded operand: k tap rows of adjacent nr-column tiles
// (row g, column j of tile t is src[g*row+t*tile+j]), and its packed panel.
type gemmCols[E elem] struct {
	src          []E
	row, tile, k int
	panel        []uint8
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
// never fewer than one; tileMajor gathers it tile by tile, else in rows;
// inPlace lets a 1x1 layer's block of whole tiles load as its channel planes
// where they lie; pack (optional) packs a loaded block of cols columns; tile
// computes, finishes and stores the cols columns of operand a (whole tiles,
// the last maybe stopped short past cols) for channel block ob (first
// channel oc0, width real ones) as mr rows dstStride apart.
type gemmDType[E elem, W, V any] struct {
	active                            **V // the variant run (tests reassign it)
	shape                             func(v *V) (mr, nr int)
	planeBytes, gatherBytes, tapBytes int
	tileMajor, inPlace                bool
	pack                              func(c *gemmCall[E, W, V], s *gemmScratch[E], cols int)
	tile                              func(c *gemmCall[E, W, V], a *gemmCols[E], dst []E, dstStride, ob, oc0, width, cols int)

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
		}
	}
}

// load makes columns [x0, x0+cols) of group grp's taps s.whole and s.last,
// whole tiles both: in place for a dtype that reads planes where they lie
// and a block of whole tiles, else gathered (a ragged tile's extra columns
// are zeros), then packed unless the gather was tile-major.
func (c *gemmCall[E, W, V]) load(s *gemmScratch[E], grp, x0, cols int) {
	t := &c.taps
	width := (cols + c.nr - 1) / c.nr * c.nr
	inPlace := t.inPlace && c.d.inPlace && cols == width
	if inPlace {
		s.whole = gemmCols[E]{src: t.planes(grp, x0), row: t.h * t.w, tile: c.nr, k: t.k}
	} else {
		s.whole = gemmCols[E]{row: width, tile: c.nr, k: t.k}
		if c.d.tileMajor {
			s.whole.row, s.whole.tile = c.nr, t.k*c.nr
		}
		s.taps = slices.Grow(s.taps[:0], t.k*width)[:t.k*width]
		s.whole.src = s.taps
		t.gather(s.taps, s.whole.row, s.whole.tile, grp, x0, cols, width)
	}
	s.last = s.whole
	s.last.src = s.whole.src[cols/c.nr*s.whole.tile:]
	if c.d.pack != nil && (inPlace || !c.d.tileMajor) {
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
		c.d.tile(c, a, c.out[oc0*c.n+x:], c.n, ob, oc0, width, valid)
		return
	}
	stride := tiles * c.nr
	s.stage = slices.Grow(s.stage[:0], c.mr*stride)[:c.mr*stride]
	c.d.tile(c, a, s.stage, stride, ob, oc0, width, valid)
	for b := 0; b < width; b++ {
		copy(c.out[(oc0+b)*c.n+x:][:valid], s.stage[b*stride:])
	}
}

// The float32 side: a block is packed tile by tile — a 1x1 layer's whole
// tiles straight from its channel planes (fpwPanel), every other block by
// its gather — into a panel that every channel block's fpwVariant tile
// sweeps once per column block, finishing in registers. Each output element
// is bias, then acc = fma32(w[k], tap[k], acc) for ascending k = (ic, kh,
// kw), by one lane of one tile, then the batch-norm affine and the
// activation; a gathered padding zero is an exact no-op when every weight is
// finite and no bias is -0 or NaN (convWeights.padExact; DESIGN.md §6).

const (
	// fpwMR x fpwNR is every float register tile: channels of a weight-panel
	// block times flattened columns.
	fpwMR, fpwNR = 8, 32
	// fpwPanelBytes bounds a column block's panel (never below one tile) when
	// it is a copy of the channel planes, so it stays in L2 under the tiles;
	// measured flat from 128 KB to 512 KB.
	fpwPanelBytes = 256 << 10
	// fpwGatherBytes is the bound when the block is gathered: measured flat
	// from 8 KB to 256 KB on 3x3 layers at both strides, the stem, 1x7 and
	// ToyChain's layers (EXPERIMENTS.md, PR 25), so it is sized for the
	// scratch it pins — int8's plane-copy bound, an eighth of float's.
	fpwGatherBytes = 32 << 10
)

// fpwVariant is one register tile under the driver. tile computes the
// ceil(cols/fpwNR) adjacent tiles of a tile-major panel (tile t's row g at
// src[(t*k+g)*fpwNR:]) that hold cols columns, for the fpwMR channels from
// oc0 of p, whose tap-major weights are wgt (a convWeights.packed panel),
// and stores them finished: dst[b*dstStride+t*fpwNR+j] = fin(bias[b] chained
// through fma32(wgt[g*fpwMR+b], src[(t*k+g)*fpwNR+j], acc) for ascending
// g < k), fin being channel oc0+b's finishChannel. It may stop the last tile
// short past column cols.
type fpwVariant struct {
	name string
	tile func(dst []float32, dstStride int, src, wgt []float32, p *fparams, oc0, k, cols int, act nn.Activation)
}

// fpwVariants lists the variants this host can run, fastest first, portable
// last; fpwActive is the driver's — chosen here once, reassigned only by the
// tests, which run every entry against the reference kernel.
var (
	fpwVariants = append(fpwArchVariants(), &fpwVariant{"portable", fpwTilePortable})
	fpwActive   = fpwVariants[0]
)

// fpwAsm wraps an assembly tile as a variant (scale nil: no batch norm); a
// ragged block reads the spare capacity convWeights.pack gives its params.
func fpwAsm(name string, tile func(dst *float32, dstStride int, src, wgt, bias, scale, shift *float32, k, cols, act int)) *fpwVariant {
	return &fpwVariant{name, func(dst []float32, dstStride int, src, wgt []float32, p *fparams, oc0, k, cols int, act nn.Activation) {
		var scale, shift *float32
		if p.bnScale != nil {
			scale, shift = &p.bnScale[oc0 : oc0+fpwMR][0], &p.bnShift[oc0 : oc0+fpwMR][0]
		}
		tile(&dst[0], dstStride, &src[0], &wgt[0], &p.bias[oc0 : oc0+fpwMR][0], scale, shift, k, cols, actCode(act))
	}}
}

// fgemm is float32's side of the GEMM driver.
var fgemm = gemmDType[float32, convWeights, fpwVariant]{
	active:      &fpwActive,
	shape:       func(*fpwVariant) (int, int) { return fpwMR, fpwNR },
	planeBytes:  fpwPanelBytes,
	gatherBytes: fpwGatherBytes,
	tapBytes:    4,
	tileMajor:   true,
	inPlace:     simd,
	pack:        fpwPanel,
	tile:        fpwTile,
}

// convForwardGEMM runs the GEMM driver over float32.
func convForwardGEMM(in Tensor, g geom, l *nn.Layer, wts *convWeights, par int) Tensor {
	return ftensor(gemm(&fgemm, in.Data, in.C, in.H, in.W, g, l, wts, par))
}

// fpwPanel packs a block loaded in place (whole tiles of k channel planes;
// only with the vector pack, fgemm.inPlace) into the tile-major panel.
func fpwPanel(c *gemmCall[float32, convWeights, fpwVariant], s *gemmScratch[float32], cols int) {
	a := s.whole
	s.taps = slices.Grow(s.taps[:0], a.k*cols)[:a.k*cols]
	fpwPack(&s.taps[0], &a.src[0], a.row, a.k, cols/fpwNR)
	s.whole = gemmCols[float32]{src: s.taps, row: fpwNR, tile: a.k * fpwNR, k: a.k}
}

// fpwTile runs the active variant's tile over a packed block's tiles. An
// unpacked block (sparse, or a narrow group's) sweeps its channels one at a
// time in plain Go, skipping zero weights as the reference does, and
// finishes each channel's row.
func fpwTile(c *gemmCall[float32, convWeights, fpwVariant], a *gemmCols[float32], dst []float32, dstStride, ob, oc0, width, cols int) {
	wts, k, act := c.w, a.k, c.taps.l.Act
	if packed := wts.packed[ob]; packed != nil {
		c.v.tile(dst, dstStride, a.src, packed, &wts.fparams, oc0, k, cols, act)
		return
	}
	tiles := (cols + fpwNR - 1) / fpwNR
	for b := 0; b < width; b++ {
		acc := dst[b*dstStride:][:tiles*fpwNR]
		for i := range acc {
			acc[i] = wts.bias[oc0+b]
		}
		for g, w := range wts.w[(oc0+b)*k:][:k] {
			for t := 0; t < tiles && w != 0; t++ {
				for j, x := range a.src[g*a.row+t*a.tile:][:fpwNR] {
					acc[t*fpwNR+j] = fma32(w, x, acc[t*fpwNR+j])
				}
			}
		}
		wts.finishChannel(acc, oc0+b, act)
	}
}

// fpwTilePortable is the tile contract in plain Go and the generic-host
// path: per tile, each tap row's columns chained into all eight channel
// rows; the last tile stops at column cols.
func fpwTilePortable(dst []float32, dstStride int, src, wgt []float32, p *fparams, oc0, k, cols int, act nn.Activation) {
	const nr = fpwNR
	for t := 0; t*nr < cols; t++ {
		panel, m := src[t*k*nr:][:k*nr], min(nr, cols-t*nr)
		row := func(b int) []float32 { return dst[b*dstStride+t*nr:][:m] }
		d0, d1, d2, d3, d4, d5, d6, d7 := row(0), row(1), row(2), row(3), row(4), row(5), row(6), row(7)
		bias := p.bias[oc0 : oc0+fpwMR]
		for j := range d0 {
			d0[j], d1[j], d2[j], d3[j], d4[j], d5[j], d6[j], d7[j] = bias[0], bias[1], bias[2], bias[3], bias[4], bias[5], bias[6], bias[7]
		}
		for g := 0; g < k; g++ {
			w := wgt[g*fpwMR:][:fpwMR]
			for j, x := range panel[g*nr:][:m] {
				d0[j] = fma32(w[0], x, d0[j])
				d1[j] = fma32(w[1], x, d1[j])
				d2[j] = fma32(w[2], x, d2[j])
				d3[j] = fma32(w[3], x, d3[j])
				d4[j] = fma32(w[4], x, d4[j])
				d5[j] = fma32(w[5], x, d5[j])
				d6[j] = fma32(w[6], x, d6[j])
				d7[j] = fma32(w[7], x, d7[j])
			}
		}
		for b := 0; b < fpwMR && oc0+b < len(p.bias); b++ { // a ragged block's spare rows are dropped
			p.finishChannel(row(b), oc0+b, act)
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
	tile: func(c *gemmCall[int8, qconvWeights, qpwVariant], a *qpwCols, dst []int8, dstStride, ob, oc0, _, cols int) {
		c.v.tile(dst, dstStride, a, c.w, ob, oc0, (cols+c.nr-1)/c.nr, c.taps.l.Act)
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
				for j, v := range a.src[c*a.row+t*nr:][:nr] {
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
