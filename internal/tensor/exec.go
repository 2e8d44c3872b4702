package tensor

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pico/internal/nn"
	"pico/internal/partition"
)

// Executor runs a model (or any contiguous segment of it) on feature maps,
// including partitioned execution on tiles. Weights are derived lazily
// and deterministically from the seed, so two Executors with the same model
// and seed — in the same or different processes — compute identical results.
// An Executor is safe for concurrent use.
//
// There is one walker (RunTile): geometry is a partition.Rect — a row strip
// is the rect whose columns are full at every boundary — and precision is
// the tag on the FMap it is handed. Run/RunQ/RunSegment/RunSegmentQ are the
// typed adapters over it.
//
// Kernels parallelise over the shared pool (see pool.go) up to the
// executor's configured parallelism; results are bit-identical at every
// worker count because chunking never changes per-element accumulation
// order. Intermediate layer tensors cycle through the arena (see arena.go),
// so steady-state inference performs no per-layer allocations.
type Executor struct {
	m    *nn.Model
	seed int64
	calc *partition.Calc
	par  int

	// k is the typed kernel table the one dispatch calls through: the
	// blocked/SIMD engine, or the reference loops under WithReferenceKernels.
	k *kernels

	// quant marks the executor as serving the int8 path (see quant_exec.go).
	// The float path stays fully usable either way.
	quant bool

	// Activation scales, one per layer boundary: preset by WithQuantScales,
	// otherwise calibrated once under scOnce (see QuantScales).
	scOnce sync.Once
	scales []float32
	scErr  error

	// stats attributes kernel wall time by layer kind (see KindSeconds).
	stats kindStats

	// Weights, generated on first use per layer key.
	conv  onceCache[convWeights]
	fc    onceCache[fcWeights]
	qconv onceCache[qconvWeights]
	qfc   onceCache[qparams]
}

// kernels is one engine's kernel set, a typed table per dtype. Only kernels
// are typed by element; everything above them handles FMaps.
type kernels struct {
	f dtypeKernels[Tensor, convWeights, fcWeights]
	q dtypeKernels[QTensor, qconvWeights, qparams]
}

// dtypeKernels is one dtype's kernels over its typed view T (CW, FW its conv
// and fc weights) and how runLayer reaches them: view, tag, weight getters.
type dtypeKernels[T, CW, FW any] struct {
	conv func(in T, g geom, l *nn.Layer, w *CW, par int) T
	pool func(in T, g geom, l *nn.Layer, par int) T
	fc   func(in T, l *nn.Layer, w *FW, par int) T
	gap  func(in T, l *nn.Layer, par int) T

	view  func(FMap) T
	tag   func(T) FMap
	convW func(e *Executor, key string, l *nn.Layer, inC int, sIn, sOut float32) *CW
	fcW   func(e *Executor, key string, l *nn.Layer, inElems int, sIn, sOut float32) *FW
}

var (
	blockedKernels = kernels{
		dtypeKernels[Tensor, convWeights, fcWeights]{convForward, poolForward, fcForward, gapForward,
			FMap.Tensor, MapOf, (*Executor).convW, (*Executor).fcW},
		dtypeKernels[QTensor, qconvWeights, qparams]{qconvForward, qpoolForward, qfcForward, qgapForward,
			FMap.QTensor, MapOfQ, (*Executor).qconvW, (*Executor).qfcW},
	}
	referenceKernels = func() kernels {
		k := blockedKernels
		k.f.conv, k.f.pool, k.f.fc = convForwardRef, poolForwardRef, fcForwardRef
		k.q.conv, k.q.pool, k.q.fc = qconvForwardRef, qpoolForwardRef, qfcForwardRef
		return k
	}()
)

// onceCache lazily builds one value per key. The hot path takes a read lock;
// a miss serialises only the creation of the key's entry, never the
// generation itself: each entry generates under its own sync.Once, so two
// workers warming different layers proceed concurrently, and after warm-up
// concurrent stage workers never contend.
type onceCache[V any] struct {
	mu sync.RWMutex
	m  map[string]*onceEntry[V]
}

type onceEntry[V any] struct {
	once sync.Once
	v    atomic.Pointer[V] // set once, under once; peek reads it outside
}

func (c *onceCache[V]) get(key string, gen func() *V) *V {
	c.mu.RLock()
	ent, ok := c.m[key]
	c.mu.RUnlock()
	if !ok {
		c.mu.Lock()
		if ent, ok = c.m[key]; !ok {
			if c.m == nil {
				c.m = make(map[string]*onceEntry[V])
			}
			ent = &onceEntry[V]{}
			c.m[key] = ent
		}
		c.mu.Unlock()
	}
	ent.once.Do(func() { ent.v.Store(gen()) })
	return ent.v.Load()
}

// peek returns the key's value if it has already been built, else nil; it
// never builds and never waits for a build in progress.
func (c *onceCache[V]) peek(key string) *V {
	c.mu.RLock()
	ent := c.m[key]
	c.mu.RUnlock()
	if ent == nil {
		return nil
	}
	return ent.v.Load()
}

// Layer kinds kernel time is attributed to, indexing KindNames and the
// arrays KindTotals returns.
const (
	kindConv      = iota // spatial convolutions (kernel > 1x1, grouped-but-not-depthwise)
	kindPointwise        // 1x1 stride-1 unpadded convolutions
	kindDepthwise        // groups == channels convolutions
	kindPool             // max/avg/global-average pools
	kindFC               // fully connected layers
	NumKinds
)

// KindNames names each layer kind, in kind order.
var KindNames = [NumKinds]string{"conv", "pointwise", "depthwise", "pool", "fc"}

// kindStats accumulates kernel wall-clock seconds per layer kind. Counters
// are float64 bit patterns updated by CAS so concurrent segment runs on one
// executor attribute time without a lock on the hot path.
type kindStats [NumKinds]atomic.Uint64

func (s *kindStats) add(kind int, d time.Duration) {
	c, sec := &s[kind], d.Seconds()
	for {
		old := c.Load()
		if c.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+sec)) {
			return
		}
	}
}

// convKind picks the attribution bucket for a convolution's shape, by the
// predicates the kernel dispatch in convForward uses.
func convKind(l *nn.Layer, inC int) int {
	switch {
	case depthwise(l, inC):
		return kindDepthwise
	case pointwise(l):
		return kindPointwise
	default:
		return kindConv
	}
}

// KindTotals returns cumulative kernel wall-clock seconds since the executor
// was created, indexed by layer kind (KindNames): conv, pointwise, depthwise,
// pool (including global average pool), and fc — in either precision and for
// any tile shape. Block combine overhead and tensor stitching are not
// attributed. It does not allocate, so a caller can take a delta around each
// tile.
func (e *Executor) KindTotals() [NumKinds]float64 {
	var t [NumKinds]float64
	for k := range t {
		t[k] = math.Float64frombits(e.stats[k].Load())
	}
	return t
}

// KindSeconds is KindTotals keyed by kind name.
func (e *Executor) KindSeconds() map[string]float64 {
	out := make(map[string]float64, NumKinds)
	for k, sec := range e.KindTotals() {
		out[KindNames[k]] = sec
	}
	return out
}

// ExecutorOption configures an Executor.
type ExecutorOption func(*Executor)

// WithParallelism caps the number of pool workers a kernel may use. n <= 0
// restores the default (GOMAXPROCS); 1 is fully serial execution. Results
// are bit-identical regardless of n.
func WithParallelism(n int) ExecutorOption {
	return func(e *Executor) {
		if n <= 0 {
			n = defaultParallelism()
		}
		e.par = n
	}
}

// WithReferenceKernels makes the executor run every convolution, pool and
// fully connected layer — float32 and int8, strips and partial-width tiles —
// through the plain-Go reference kernels (ref.go) instead of the fast ones.
// Results are bit-identical either way; the option exists so benchmarks and
// property tests can A/B the two engines through the full execution stack.
func WithReferenceKernels() ExecutorOption {
	return func(e *Executor) { e.k = &referenceKernels }
}

// WithQuantized marks the executor for int8 inference: callers hand it Int8
// maps (RunQ/RunSegmentQ/RunTile) and activation scales are calibrated
// lazily from the deterministic calibration input. The option is a mode
// marker, not a restriction — the float32 path remains available and
// bit-identical.
func WithQuantized() ExecutorOption {
	return func(e *Executor) { e.quant = true }
}

// WithQuantScales is WithQuantized with the boundary scales preset to a
// vector some other node calibrated for the same (model, seed) — what a
// worker receives in a load frame — so this executor never calibrates.
// NewExecutor fails unless the vector passes checkQuantScales.
func WithQuantScales(scales []float32) ExecutorOption {
	return func(e *Executor) {
		e.quant = true
		// Non-nil even when empty: an empty vector is refused, not replaced
		// by a local calibration.
		e.scales = append([]float32{}, scales...)
	}
}

// NewExecutor builds an executor for the model with the given weight seed.
func NewExecutor(m *nn.Model, seed int64, opts ...ExecutorOption) (*Executor, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	e := &Executor{
		m:    m,
		seed: seed,
		calc: partition.NewCalc(m),
		par:  defaultParallelism(),
		k:    &blockedKernels,
	}
	for _, opt := range opts {
		opt(e)
	}
	if e.scales != nil {
		if err := checkQuantScales(m, seed, e.scales); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Model returns the executor's model.
func (e *Executor) Model() *nn.Model { return e.m }

// Seed returns the weight seed.
func (e *Executor) Seed() int64 { return e.seed }

// Parallelism returns the kernel worker-count cap.
func (e *Executor) Parallelism() int { return e.par }

// InputRange returns the input rows segment [from, to) needs to produce the
// given output rows — what a stage leader must send a worker.
func (e *Executor) InputRange(from, to int, out partition.Range) partition.Range {
	return e.calc.InputRange(from, to, out)
}

// Strip expresses output rows of boundary to as the tile RunTile takes: the
// rect spanning the map's full width. An out-of-range to yields an empty
// rect, which RunTile rejects along with the segment.
func (e *Executor) Strip(to int, rows partition.Range) partition.Rect {
	if to < 1 || to > e.m.NumLayers() {
		return partition.Rect{}
	}
	return partition.Rect{Rows: rows, Cols: partition.Full(e.m.OutShape(to - 1).W)}
}

// TileFLOPs returns the MACs of producing region out of segment [from, to),
// used for capacity emulation and accounting: the planner's own count
// (partition.Calc.SegmentRectFLOPs, over the regions RunTile computes). It
// models the device's aggregate arithmetic and is independent of how many
// pool workers execute the kernels.
func (e *Executor) TileFLOPs(from, to int, out partition.Rect) int64 {
	return e.calc.SegmentRectFLOPs(from, to, out)
}

// Run executes the whole model on a full input tensor. Models whose
// geometry drops trailing rows (odd extents into stride-2 layers) never
// read them; the unused border is trimmed before the walker runs.
// Ownership: Run never recycles the caller's tensor. When trimming is
// needed, SliceRows copies the kept rows into a fresh executor-owned
// arena tensor (it is a copy, not a view — see Tensor.SliceRows), and only
// that copy is recycled. The caller's buffer, arena-backed or not, stays
// live and untouched after Run returns.
func (e *Executor) Run(in Tensor) (Tensor, error) {
	out, err := e.run(in, false)
	return out.Tensor(), err
}

// RunQ executes the whole model in int8 on a full float32 input: the input
// quantizes at the first boundary's calibrated scale and every stage
// boundary thereafter stays int8. The returned QTensor carries the output
// boundary's scale; Dequantize yields the float approximation. Like Run,
// RunQ never recycles the caller's tensor.
func (e *Executor) RunQ(in Tensor) (QTensor, error) {
	out, err := e.run(in, true)
	return out.QTensor(), err
}

// run is the shared body of Run and RunQ.
func (e *Executor) run(in Tensor, quant bool) (FMap, error) {
	n := e.m.NumLayers()
	rects := e.calc.TileRects(0, n, e.Strip(n, partition.Full(e.m.Output().H)))
	tile := MapOf(in)
	if need := rects[0].Rows; in.Valid() && in.C == e.m.Input.C && in.H == e.m.Input.H && in.W == e.m.Input.W && need.Len() < in.H {
		tile = tile.sliceRows(need.Lo, need.Hi)
		defer tile.Recycle()
	}
	if quant {
		scales, err := e.QuantScales()
		if err != nil {
			return FMap{}, err
		}
		q := QuantizeTensor(tile.Tensor(), scales[0])
		defer RecycleQ(q)
		tile = MapOfQ(q)
	}
	return e.walk(0, tile, rects)
}

// RunSegment executes layers [from, to) producing output rows out of the
// segment's final layer. tile must hold exactly the input rows
// InputRange(from, to, out) of the feature map at boundary from (for a full
// run, the whole input). The returned tensor is arena-backed; callers done
// with it may Recycle it to keep the hot path allocation-free.
func (e *Executor) RunSegment(from, to int, tile Tensor, out partition.Range) (Tensor, error) {
	res, err := e.RunTile(from, to, MapOf(tile), e.Strip(to, out))
	return res.Tensor(), err
}

// RunSegmentQ is the int8 counterpart of RunSegment: the tile is quantized
// at boundary from's calibrated scale and the result carries boundary to's.
func (e *Executor) RunSegmentQ(from, to int, tile QTensor, out partition.Range) (QTensor, error) {
	res, err := e.RunTile(from, to, MapOfQ(tile), e.Strip(to, out))
	return res.QTensor(), err
}

// RunTile is the segment walker: it executes layers [from, to) on one tile
// in the tile's own precision and produces region out of the segment's final
// layer. tile must hold exactly the region TileRects(from, to, out)[0] of
// the feature map at boundary from — for a row strip, the full-width rows
// InputRange(from, to, out.Rows). An Int8 tile must carry boundary from's
// calibrated scale bit for bit — a mismatch means the sender calibrated a
// different model or seed, which would silently corrupt every value — and
// the result carries boundary to's. FullyConnected / GlobalAvgPool layers
// consume the whole map and are rejected on any smaller tile. The returned
// map is arena-backed; callers done with it may Recycle it.
func (e *Executor) RunTile(from, to int, tile FMap, out partition.Rect) (FMap, error) {
	if from < 0 || to > e.m.NumLayers() || from >= to {
		return FMap{}, fmt.Errorf("tensor: invalid segment [%d,%d)", from, to)
	}
	if out.Empty() {
		return FMap{}, fmt.Errorf("tensor: empty output region %v", out)
	}
	return e.walk(from, tile, e.calc.TileRects(from, to, out))
}

// walk runs the layers from `from` on, one per boundary pair of rects (the
// TileRects of the tile being produced).
func (e *Executor) walk(from int, tile FMap, rects []partition.Rect) (FMap, error) {
	to := from + len(rects) - 1
	shapes := e.m.Shapes()
	if need := rects[0]; !tile.Valid() || tile.C != shapes[from].C || tile.H != need.Rows.Len() || tile.W != need.Cols.Len() {
		return FMap{}, fmt.Errorf("tensor: %v tile %dx%dx%d does not match required region %v of %v",
			tile.DType, tile.C, tile.H, tile.W, need, shapes[from])
	}
	var scales []float32 // boundary scales; nil on the float path
	if tile.DType == Int8 {
		var err error
		if scales, err = e.QuantScales(); err != nil {
			return FMap{}, err
		}
		if math.Float32bits(tile.Scale) != math.Float32bits(scales[from]) {
			return FMap{}, fmt.Errorf("tensor: tile scale %g does not match calibrated boundary scale %g", tile.Scale, scales[from])
		}
	}
	cur := tile
	for i := from; i < to; i++ {
		k := i - from
		g := geom{rowLo: rects[k].Rows.Lo, colLo: rects[k].Cols.Lo, in: shapes[i], out: rects[k+1]}
		var sIn, sOut float32
		if scales != nil {
			sIn, sOut = scales[i], scales[i+1]
		}
		next, err := e.runLayer(&e.m.Layers[i], strconv.Itoa(i), cur, g, sIn, sOut)
		if err != nil {
			return FMap{}, fmt.Errorf("tensor: layer %d (%s): %w", i, e.m.Layers[i].Name, err)
		}
		if i > from {
			// cur is an intermediate this segment produced (never the
			// caller's tile); its buffer is dead now.
			cur.Recycle()
		}
		cur = next
	}
	return cur, nil
}

// runLayer is the one per-layer dispatch: it runs layer l (a model layer or
// one inside a block; key names its weights) on a tile placed by g through
// the kernels of the tile's precision. Int8 conv and fc weights carry sOut,
// the scale their fused epilogue requantizes to; pools keep their input's.
func (e *Executor) runLayer(l *nn.Layer, key string, in FMap, g geom, sIn, sOut float32) (FMap, error) {
	switch l.Kind {
	case nn.FullyConnected, nn.GlobalAvgPool:
		if g.rowLo != 0 || g.colLo != 0 || in.H != g.in.H || in.W != g.in.W {
			return FMap{}, fmt.Errorf("%v needs the full input map, got %dx%d at (%d,%d) of %v", l.Kind, in.H, in.W, g.rowLo, g.colLo, g.in)
		}
	case nn.Conv, nn.MaxPool, nn.AvgPool:
	case nn.Block:
		if in.DType != Int8 {
			res, err := e.runBlock(l, key, in.Tensor(), g)
			return MapOf(res), err
		}
		// Hybrid: a block's internal graph combine is additive and rare, so
		// its paths run the float engine between the two int8 boundaries
		// (dequantize, run, requantize). That keeps every model runnable
		// under quant mode while the chain-structured hot models stay int8
		// end to end.
		q := in.QTensor()
		fin := q.Dequantize()
		res, err := e.runBlock(l, key, fin, g)
		Recycle(fin)
		if err != nil {
			return FMap{}, err
		}
		out := QuantizeTensor(res, sOut)
		Recycle(res)
		return MapOfQ(out), nil
	default:
		return FMap{}, fmt.Errorf("unsupported layer kind %v", l.Kind)
	}
	if in.DType == Int8 {
		return runKernel(e, &e.k.q, l, key, in, g, sIn, sOut), nil
	}
	return runKernel(e, &e.k.f, l, key, in, g, sIn, sOut), nil
}

// runKernel runs a conv, pool, fc or global-pool layer through k, timing the
// kernel alone (not weight generation) for the layer's kind.
func runKernel[T, CW, FW any](e *Executor, k *dtypeKernels[T, CW, FW], l *nn.Layer, key string, in FMap, g geom, sIn, sOut float32) FMap {
	x := k.view(in)
	var out T
	kind, start := kindPool, time.Now()
	switch l.Kind {
	case nn.Conv:
		w := k.convW(e, key, l, g.in.C, sIn, sOut)
		kind, start = convKind(l, g.in.C), time.Now()
		out = k.conv(x, g, l, w, e.par)
	case nn.FullyConnected:
		w := k.fcW(e, key, l, g.in.Elems(), sIn, sOut)
		kind, start = kindFC, time.Now()
		out = k.fc(x, l, w, e.par)
	case nn.GlobalAvgPool:
		out = k.gap(x, l, e.par)
	default:
		out = k.pool(x, g, l, e.par)
	}
	e.stats.add(kind, time.Since(start))
	return k.tag(out)
}

// runBlock executes a graph block on a float tile covering the hull of all
// path input requirements, then combines path outputs. Path intermediates
// are recycled as soon as the next layer consumes them; path outputs are
// recycled after merging. An identity shortcut is the empty path: its one
// boundary is the block output region itself, copied out of the tile.
func (e *Executor) runBlock(l *nn.Layer, key string, in Tensor, g geom) (Tensor, error) {
	tile := partition.Rect{
		Rows: partition.Range{Lo: g.rowLo, Hi: g.rowLo + in.H},
		Cols: partition.Range{Lo: g.colLo, Hi: g.colLo + in.W},
	}
	var combined Tensor
	for pi, path := range l.Paths {
		needs := e.calc.PathTileRects(path, g.out, g.in)
		if !tile.Rows.Contains(needs[0].Rows) || !tile.Cols.Contains(needs[0].Cols) {
			return Tensor{}, fmt.Errorf("path %d needs %v outside tile %v", pi, needs[0], tile)
		}
		cur := MapOf(in).SliceRect(partition.Rect{
			Rows: partition.Range{Lo: needs[0].Rows.Lo - g.rowLo, Hi: needs[0].Rows.Hi - g.rowLo},
			Cols: partition.Range{Lo: needs[0].Cols.Lo - g.colLo, Hi: needs[0].Cols.Hi - g.colLo},
		})
		curShape := g.in
		for li := range path {
			nextShape, err := path[li].OutShape(curShape)
			if err != nil {
				return Tensor{}, err
			}
			pk := key + "/" + strconv.Itoa(pi) + "/" + strconv.Itoa(li)
			pg := geom{rowLo: needs[li].Rows.Lo, colLo: needs[li].Cols.Lo, in: curShape, out: needs[li+1]}
			next, err := e.runLayer(&path[li], pk, cur, pg, 0, 0)
			if err != nil {
				return Tensor{}, fmt.Errorf("path %d layer %d (%s): %w", pi, li, path[li].Name, err)
			}
			cur.Recycle() // the path-local copy or a path intermediate
			cur, curShape = next, nextShape
		}
		pOut := cur.Tensor()
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

// concatChannels merges two feature maps along the channel axis into an
// explicitly allocated buffer and recycles the inputs. An append onto
// a.Data would be wrong here: when a's backing array has spare capacity
// (always true for arena slabs), append writes b's channels into memory
// that other tensors may share.
func concatChannels(a, b Tensor) Tensor {
	merged := Alloc(a.C+b.C, a.H, a.W)
	copy(merged.Data, a.Data)
	copy(merged.Data[len(a.Data):], b.Data)
	Recycle(a)
	Recycle(b)
	return merged
}

// The weight getters generate on first use through the once-caches. The
// int8 forms quantize the layer's float parameters per output channel: the
// float entry's if the float path already built one, otherwise parameters
// generated for the purpose and dropped — an int8 layer never makes the
// executor hold float weights.

func (e *Executor) convW(key string, l *nn.Layer, inC int, _, _ float32) *convWeights {
	return e.conv.get(key, func() *convWeights { return genConv(e.seed, key, l, inC) })
}

func (e *Executor) fcW(key string, l *nn.Layer, inElems int, _, _ float32) *fcWeights {
	return e.fc.get(key, func() *fcWeights { return genFC(e.seed, key, l, inElems) })
}

func (e *Executor) qconvW(key string, l *nn.Layer, inC int, sIn, sOut float32) *qconvWeights {
	return e.qconv.get(key, func() *qconvWeights {
		cw := e.conv.peek(key)
		if cw == nil {
			cw = genConvParams(e.seed, key, l, inC)
		}
		return genQConv(cw, l, inC/max(l.Groups, 1), sIn, sOut)
	})
}

func (e *Executor) qfcW(key string, l *nn.Layer, inElems int, sIn, sOut float32) *qparams {
	return e.qfc.get(key, func() *qparams {
		fw := e.fc.peek(key)
		if fw == nil {
			fw = genFCParams(e.seed, key, l, inElems)
		}
		return genQFC(fw, l, inElems, sIn, sOut)
	})
}
