package tensor

import (
	"fmt"
	"strconv"

	"pico/internal/nn"
	"pico/internal/partition"
)

// This file extends tiled execution from row strips to DeepThings-style 2D
// rectangles: a worker receives a rectangular input region (with its global
// row/column offsets) and produces a rectangular output tile. As with
// strips, per-output-pixel accumulation order is tile-independent, so grid
// execution is bit-identical to whole-map execution. Kernels parallelise
// over (output channel, output row) chunks exactly like their strip
// counterparts in ops.go.

// convForwardRect computes the output rectangle out of a convolution from a
// tile holding input rows [inRowLo, inRowLo+in.H) and columns
// [inColLo, inColLo+in.W) of a feature map with global extent
// inHGlobal x inWGlobal. With a register-tile plan it dispatches to the
// blocked kernel, which shares convRowBlk (and its vector tiles) with the
// strip path; hand-built weights keep the original per-channel sweep.
func convForwardRect(in Tensor, inRowLo, inColLo, inHGlobal, inWGlobal int, l *nn.Layer, wts *convWeights, out partition.Rect, par int) Tensor {
	if len(wts.blocks) > 0 {
		return convForwardRectBlocked(in, inRowLo, inColLo, inHGlobal, inWGlobal, l, wts, out, par)
	}
	return convForwardRectRef(in, inRowLo, inColLo, inHGlobal, inWGlobal, l, wts, out, par)
}

// convForwardRectBlocked is the register-tiled rect conv: one work unit per
// (oc-block, output row), exactly like convForwardBlocked, with the packed
// row primitive receiving the tile's global column geometry. Per output
// element the accumulation order (bias, then g, kh, kw ascending) is the
// per-channel sweep's order, so blocked rect tiles stitch byte-identically.
func convForwardRectBlocked(in Tensor, inRowLo, inColLo, inHGlobal, inWGlobal int, l *nn.Layer, wts *convWeights, out partition.Rect, par int) Tensor {
	outRows := out.Rows.Len()
	outCols := out.Cols.Len()
	res := Alloc(l.OutC, outRows, outCols)
	groups := l.Groups
	if groups < 1 {
		groups = 1
	}
	icg := in.C / groups
	grain := grainFor(ocBlockWidth * icg * l.KH * l.KW * outCols)
	accStride := outRows * outCols
	parallelForGrain(len(wts.blocks)*outRows, par, grain, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			blk := &wts.blocks[u/outRows]
			or := u % outRows
			ohGlobal := out.Rows.Lo + or
			for b := 0; b < blk.width; b++ {
				oc := blk.oc0 + b
				acc := res.Data[(oc*outRows+or)*outCols : (oc*outRows+or+1)*outCols]
				for i := range acc {
					acc[i] = wts.bias[oc]
				}
			}
			accBase := res.Data[(blk.oc0*outRows+or)*outCols:]
			for g := 0; g < icg; g++ {
				ic := blk.icBase + g
				for kh := 0; kh < l.KH; kh++ {
					ihGlobal := ohGlobal*l.SH - l.PH + kh
					if ihGlobal < 0 || ihGlobal >= inHGlobal {
						continue // true top/bottom padding
					}
					ih := ihGlobal - inRowLo
					if ih < 0 || ih >= in.H {
						panic(fmt.Sprintf("tensor: rect conv needs global row %d outside tile [%d,%d)", ihGlobal, inRowLo, inRowLo+in.H))
					}
					inRow := in.Data[(ic*in.H+ih)*in.W : (ic*in.H+ih+1)*in.W]
					if blk.packed != nil {
						pk := blk.packed[(g*l.KH+kh)*l.KW*ocBlockWidth:]
						convRowBlk(accBase, accStride, inRow, pk, l.KW, l.SW, l.PW, out.Cols.Lo, inColLo, inWGlobal, outCols)
					} else {
						for b := 0; b < blk.width; b++ {
							oc := blk.oc0 + b
							row := wts.row((oc*icg+g)*l.KH + kh)
							acc := res.Data[(oc*outRows+or)*outCols : (oc*outRows+or+1)*outCols]
							convRowRect(acc, inRow, row, l.SW, l.PW, out.Cols.Lo, inColLo, inWGlobal, in.W, outCols)
						}
					}
				}
			}
			for b := 0; b < blk.width; b++ {
				oc := blk.oc0 + b
				finishChannel(res.Data[(oc*outRows+or)*outCols:(oc*outRows+or+1)*outCols], wts, oc, l.Act)
			}
		}
	})
	return res
}

// convForwardRectRef is the original per-channel rect sweep, retained for
// hand-built weights without a register-tile plan (tests) and as the
// behavioural reference for the blocked kernel.
func convForwardRectRef(in Tensor, inRowLo, inColLo, inHGlobal, inWGlobal int, l *nn.Layer, wts *convWeights, out partition.Rect, par int) Tensor {
	outRows := out.Rows.Len()
	outCols := out.Cols.Len()
	res := Alloc(l.OutC, outRows, outCols)
	groups := l.Groups
	if groups < 1 {
		groups = 1
	}
	icg := in.C / groups
	ocg := l.OutC / groups
	parallelFor(l.OutC*outRows, par, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			oc := t / outRows
			or := t % outRows
			icBase := (oc / ocg) * icg
			acc := res.Data[t*outCols : (t+1)*outCols]
			for i := range acc {
				acc[i] = wts.bias[oc]
			}
			ohGlobal := out.Rows.Lo + or
			for g := 0; g < icg; g++ {
				ic := icBase + g
				for kh := 0; kh < l.KH; kh++ {
					ihGlobal := ohGlobal*l.SH - l.PH + kh
					if ihGlobal < 0 || ihGlobal >= inHGlobal {
						continue // true top/bottom padding
					}
					ih := ihGlobal - inRowLo
					if ih < 0 || ih >= in.H {
						panic(fmt.Sprintf("tensor: rect conv needs global row %d outside tile [%d,%d)", ihGlobal, inRowLo, inRowLo+in.H))
					}
					inRow := in.Data[(ic*in.H+ih)*in.W : (ic*in.H+ih+1)*in.W]
					row := wts.row((oc*icg+g)*l.KH + kh)
					convRowRect(acc, inRow, row, l.SW, l.PW, out.Cols.Lo, inColLo, inWGlobal, in.W, outCols)
				}
			}
			if wts.bnScale != nil {
				s, sh := wts.bnScale[oc], wts.bnShift[oc]
				for i := range acc {
					acc[i] = acc[i]*s + sh
				}
			}
			applyActivation(acc, l.Act)
		}
	})
	return res
}

// convRowRect accumulates one compacted kernel row over one input row of a
// rectangular tile. The global-padding and tile-coverage checks are hoisted
// out of the per-column loop: for a fixed tap, the valid output columns form
// one contiguous interval, computed once.
func convRowRect(acc, inRow []float32, row kernelRow, sw, pw, outColLo, inColLo, inWGlobal, inW, outCols int) {
	for x, w := range row.w {
		// iwGlobal = base + ocl*sw; valid while 0 <= iwGlobal < inWGlobal.
		base := outColLo*sw - pw + int(row.kw[x])
		oclLo := 0
		if base < 0 {
			oclLo = (-base + sw - 1) / sw
		}
		oclHi := outCols
		if maxOcl := (inWGlobal - 1 - base) / sw; maxOcl+1 < oclHi {
			oclHi = maxOcl + 1
		}
		if oclLo >= oclHi {
			continue
		}
		iwFirst := base + oclLo*sw - inColLo
		iwLast := base + (oclHi-1)*sw - inColLo
		if iwFirst < 0 || iwLast >= inW {
			bad := iwFirst + inColLo
			if iwFirst >= 0 {
				bad = iwLast + inColLo
			}
			panic(fmt.Sprintf("tensor: rect conv needs global col %d outside tile [%d,%d)", bad, inColLo, inColLo+inW))
		}
		if sw == 1 {
			macRowF(acc[oclLo:oclHi], inRow[iwFirst:iwFirst+(oclHi-oclLo)], w)
			continue
		}
		iw := iwFirst
		for ocl := oclLo; ocl < oclHi; ocl++ {
			acc[ocl] += w * inRow[iw]
			iw += sw
		}
	}
}

// poolForwardRect is the rectangular-tile pool under the same conventions.
func poolForwardRect(in Tensor, inRowLo, inColLo, inHGlobal, inWGlobal int, l *nn.Layer, out partition.Rect, par int) Tensor {
	outRows := out.Rows.Len()
	outCols := out.Cols.Len()
	res := Alloc(in.C, outRows, outCols)
	isMax := l.Kind == nn.MaxPool
	parallelFor(in.C*outRows, par, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			c := t / outRows
			or := t % outRows
			dst := res.Data[t*outCols : (t+1)*outCols]
			ohGlobal := out.Rows.Lo + or
			for ocl := 0; ocl < outCols; ocl++ {
				owGlobal := out.Cols.Lo + ocl
				var acc float32
				if isMax {
					acc = negInf
				}
				count := 0
				for kh := 0; kh < l.KH; kh++ {
					ihGlobal := ohGlobal*l.SH - l.PH + kh
					if ihGlobal < 0 || ihGlobal >= inHGlobal {
						continue
					}
					ih := ihGlobal - inRowLo
					if ih < 0 || ih >= in.H {
						panic(fmt.Sprintf("tensor: rect pool needs global row %d outside tile [%d,%d)", ihGlobal, inRowLo, inRowLo+in.H))
					}
					for kw := 0; kw < l.KW; kw++ {
						iwGlobal := owGlobal*l.SW - l.PW + kw
						if iwGlobal < 0 || iwGlobal >= inWGlobal {
							continue
						}
						iw := iwGlobal - inColLo
						if iw < 0 || iw >= in.W {
							panic(fmt.Sprintf("tensor: rect pool needs global col %d outside tile [%d,%d)", iwGlobal, inColLo, inColLo+in.W))
						}
						v := in.At(c, ih, iw)
						if isMax {
							if v > acc {
								acc = v
							}
						} else {
							acc += v
						}
						count++
					}
				}
				if !isMax && count > 0 {
					acc /= float32(count)
				}
				dst[ocl] = acc
			}
			applyActivation(dst, l.Act)
		}
	})
	return res
}

// RunSegmentRect executes layers [from, to) producing the output rectangle
// out of the segment's final layer. tile must hold exactly the input region
// the segment needs (SegmentRects(from, to, out)[0] of the partition Calc).
// FullyConnected / GlobalAvgPool layers are not grid-partitionable and are
// rejected inside rect segments unless the tile is the whole map. The
// returned tensor is arena-backed; callers done with it may Recycle it.
func (e *Executor) RunSegmentRect(from, to int, tile Tensor, out partition.Rect) (Tensor, error) {
	if from < 0 || to > e.m.NumLayers() || from >= to {
		return Tensor{}, fmt.Errorf("tensor: invalid segment [%d,%d)", from, to)
	}
	if out.Empty() {
		return Tensor{}, fmt.Errorf("tensor: empty output rect %v", out)
	}
	shapes := e.m.Shapes()
	rects := e.calc.SegmentRects(from, to, out)
	inShape := shapes[from]
	need := rects[0]
	if !tile.Valid() || tile.C != inShape.C || tile.H != need.Rows.Len() || tile.W != need.Cols.Len() {
		return Tensor{}, fmt.Errorf("tensor: tile %dx%dx%d does not match required region %v of %v",
			tile.C, tile.H, tile.W, need, inShape)
	}
	cur := tile
	curRowLo, curColLo := need.Rows.Lo, need.Cols.Lo
	for i := from; i < to; i++ {
		next, err := e.runLayerRect(i, cur, curRowLo, curColLo, rects[i-from+1])
		if err != nil {
			return Tensor{}, fmt.Errorf("tensor: layer %d (%s): %w", i, e.m.Layers[i].Name, err)
		}
		if i > from {
			Recycle(cur)
		}
		cur = next
		curRowLo, curColLo = rects[i-from+1].Rows.Lo, rects[i-from+1].Cols.Lo
	}
	return cur, nil
}

func (e *Executor) runLayerRect(i int, in Tensor, inRowLo, inColLo int, out partition.Rect) (Tensor, error) {
	l := &e.m.Layers[i]
	return e.runLayerRectOn(l, strconv.Itoa(i), in, inRowLo, inColLo, e.m.InShape(i), out)
}

func (e *Executor) runLayerRectOn(l *nn.Layer, key string, in Tensor, inRowLo, inColLo int, inShape nn.Shape, out partition.Rect) (Tensor, error) {
	switch l.Kind {
	case nn.Conv:
		wts := e.convW(key, l, inShape.C)
		return convForwardRect(in, inRowLo, inColLo, inShape.H, inShape.W, l, wts, out, e.par), nil
	case nn.MaxPool, nn.AvgPool:
		return poolForwardRect(in, inRowLo, inColLo, inShape.H, inShape.W, l, out, e.par), nil
	case nn.FullyConnected, nn.GlobalAvgPool:
		if inRowLo != 0 || inColLo != 0 || in.H != inShape.H || in.W != inShape.W {
			return Tensor{}, fmt.Errorf("%v needs the full input map in a rect segment", l.Kind)
		}
		return e.runLayerOn(l, key, in, 0, inShape, partition.Range{Lo: out.Rows.Lo, Hi: out.Rows.Hi})
	case nn.Block:
		return e.runBlockRect(l, key, in, inRowLo, inColLo, inShape, out)
	default:
		return Tensor{}, fmt.Errorf("unsupported layer kind %v", l.Kind)
	}
}

// runBlockRect mirrors runBlock for rectangular tiles, including the
// recycling of path intermediates and the explicit concat allocation.
func (e *Executor) runBlockRect(l *nn.Layer, key string, in Tensor, inRowLo, inColLo int, inShape nn.Shape, out partition.Rect) (Tensor, error) {
	var combined Tensor
	for pi, path := range l.Paths {
		var pOut Tensor
		if len(path) == 0 {
			rLo := out.Rows.Lo - inRowLo
			rHi := out.Rows.Hi - inRowLo
			cLo := out.Cols.Lo - inColLo
			cHi := out.Cols.Hi - inColLo
			if rLo < 0 || rHi > in.H || cLo < 0 || cHi > in.W {
				return Tensor{}, fmt.Errorf("identity path needs %v outside tile", out)
			}
			pOut = sliceRect(in, rLo, rHi, cLo, cHi)
		} else {
			needs := e.calc.PathRects(path, out, inShape)
			rLo := needs[0].Rows.Lo - inRowLo
			rHi := needs[0].Rows.Hi - inRowLo
			cLo := needs[0].Cols.Lo - inColLo
			cHi := needs[0].Cols.Hi - inColLo
			if rLo < 0 || rHi > in.H || cLo < 0 || cHi > in.W {
				return Tensor{}, fmt.Errorf("path %d needs %v outside tile", pi, needs[0])
			}
			cur := sliceRect(in, rLo, rHi, cLo, cHi)
			curRowLo, curColLo := needs[0].Rows.Lo, needs[0].Cols.Lo
			curShape := inShape
			for li := range path {
				nextShape, err := path[li].OutShape(curShape)
				if err != nil {
					return Tensor{}, err
				}
				pk := key + "/" + strconv.Itoa(pi) + "/" + strconv.Itoa(li)
				next, err := e.runLayerRectOn(&path[li], pk, cur, curRowLo, curColLo, curShape, needs[li+1])
				if err != nil {
					return Tensor{}, fmt.Errorf("path %d layer %d (%s): %w", pi, li, path[li].Name, err)
				}
				Recycle(cur)
				cur = next
				curRowLo, curColLo = needs[li+1].Rows.Lo, needs[li+1].Cols.Lo
				curShape = nextShape
			}
			pOut = cur
		}
		if pi == 0 {
			combined = pOut
			continue
		}
		switch l.Combine {
		case nn.Add:
			if pOut.C != combined.C || pOut.H != combined.H || pOut.W != combined.W {
				return Tensor{}, fmt.Errorf("add path %d extent mismatch", pi)
			}
			for j := range combined.Data {
				combined.Data[j] += pOut.Data[j]
			}
			Recycle(pOut)
		case nn.Concat:
			if pOut.H != combined.H || pOut.W != combined.W {
				return Tensor{}, fmt.Errorf("concat path %d spatial mismatch", pi)
			}
			combined = concatChannels(combined, pOut)
		default:
			return Tensor{}, fmt.Errorf("invalid combine %v", l.Combine)
		}
	}
	applyActivation(combined.Data, l.Act)
	return combined, nil
}

// sliceRect copies a rectangular sub-region of every channel into an
// arena-backed tensor.
func sliceRect(t Tensor, rLo, rHi, cLo, cHi int) Tensor {
	if rLo < 0 || rHi > t.H || cLo < 0 || cHi > t.W || rLo >= rHi || cLo >= cHi {
		panic(fmt.Sprintf("tensor: sliceRect [%d,%d)x[%d,%d) of %dx%d", rLo, rHi, cLo, cHi, t.H, t.W))
	}
	out := Alloc(t.C, rHi-rLo, cHi-cLo)
	for c := 0; c < t.C; c++ {
		for r := rLo; r < rHi; r++ {
			src := t.Data[(c*t.H+r)*t.W+cLo : (c*t.H+r)*t.W+cHi]
			dst := out.Data[(c*out.H+(r-rLo))*out.W : (c*out.H+(r-rLo)+1)*out.W]
			copy(dst, src)
		}
	}
	return out
}

// SliceRect copies the rectangular sub-region rect (clamped coordinates
// required) of every channel — what a grid leader sends each worker.
func (t *Tensor) SliceRect(rect partition.Rect) Tensor {
	return sliceRect(*t, rect.Rows.Lo, rect.Rows.Hi, rect.Cols.Lo, rect.Cols.Hi)
}

// StitchGrid reassembles a full h x w feature map from disjoint rectangular
// tiles; tiles[i] covers rects[i]. Every cell must be covered exactly once.
func StitchGrid(tiles []Tensor, rects []partition.Rect, h, w int) (Tensor, error) {
	if len(tiles) == 0 || len(tiles) != len(rects) {
		return Tensor{}, fmt.Errorf("tensor: %d tiles with %d rects", len(tiles), len(rects))
	}
	c := tiles[0].C
	// Arena-backed: on success every cell is covered exactly once, so all
	// elements are written before the tensor is returned.
	out := Alloc(c, h, w)
	covered := make([]bool, h*w)
	for i, tile := range tiles {
		rc := rects[i]
		if tile.C != c || tile.H != rc.Rows.Len() || tile.W != rc.Cols.Len() {
			return Tensor{}, fmt.Errorf("tensor: tile %d extent %dx%dx%d mismatches rect %v", i, tile.C, tile.H, tile.W, rc)
		}
		if rc.Rows.Lo < 0 || rc.Rows.Hi > h || rc.Cols.Lo < 0 || rc.Cols.Hi > w {
			return Tensor{}, fmt.Errorf("tensor: tile %d rect %v outside %dx%d", i, rc, h, w)
		}
		for r := rc.Rows.Lo; r < rc.Rows.Hi; r++ {
			for col := rc.Cols.Lo; col < rc.Cols.Hi; col++ {
				if covered[r*w+col] {
					return Tensor{}, fmt.Errorf("tensor: cell (%d,%d) covered twice", r, col)
				}
				covered[r*w+col] = true
			}
		}
		for ch := 0; ch < c; ch++ {
			for r := 0; r < tile.H; r++ {
				src := tile.Data[(ch*tile.H+r)*tile.W : (ch*tile.H+r+1)*tile.W]
				dstRow := rc.Rows.Lo + r
				dst := out.Data[(ch*h+dstRow)*w+rc.Cols.Lo : (ch*h+dstRow)*w+rc.Cols.Hi]
				copy(dst, src)
			}
		}
	}
	for i, ok := range covered {
		if !ok {
			return Tensor{}, fmt.Errorf("tensor: cell (%d,%d) uncovered", i/w, i%w)
		}
	}
	return out, nil
}
