package runtime

import (
	"fmt"
	"sync"

	"pico/internal/nn"
	"pico/internal/partition"
	"pico/internal/tensor"
	"pico/internal/wire"
)

// GridExecutor distributes a fused model segment across workers as a
// DeepThings-style 2D tile grid: split the input into (overlapping)
// rectangular regions, execute each tile remotely, stitch the output grid.
// It is the single-stage grid counterpart of the strip-based Pipeline.
type GridExecutor struct {
	model   *nn.Model
	from    int
	to      int
	tiles   []partition.Rect
	calc    *partition.Calc
	seed    int64
	quant   bool
	clients []*workerClient
}

// NewGridExecutor connects to one worker per tile and loads the model.
func NewGridExecutor(m *nn.Model, from, to int, tiles []partition.Rect, addrs []string, seed int64) (*GridExecutor, error) {
	return newGridExecutor(m, from, to, tiles, addrs, seed, false)
}

// NewGridExecutorQuant is NewGridExecutor for int8 plans: it calibrates the
// boundary scales once and ships them with the model, the workers serve the
// int8 path, and tiles are shipped/returned as raw int8 bytes (a quarter of
// the float wire size). The stitched result is byte-identical to a local
// whole-map RunQ.
func NewGridExecutorQuant(m *nn.Model, from, to int, tiles []partition.Rect, addrs []string, seed int64) (*GridExecutor, error) {
	return newGridExecutor(m, from, to, tiles, addrs, seed, true)
}

func newGridExecutor(m *nn.Model, from, to int, tiles []partition.Rect, addrs []string, seed int64, quant bool) (*GridExecutor, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if from < 0 || to > m.NumLayers() || from >= to {
		return nil, fmt.Errorf("runtime: invalid grid segment [%d,%d)", from, to)
	}
	if len(tiles) == 0 || len(tiles) != len(addrs) {
		return nil, fmt.Errorf("runtime: %d tiles for %d workers", len(tiles), len(addrs))
	}
	if seed == 0 {
		seed = 1
	}
	ge := &GridExecutor{
		model: m,
		from:  from, to: to,
		tiles: tiles,
		calc:  partition.NewCalc(m),
		seed:  seed,
		quant: quant,
	}
	if err := ge.validateTiles(); err != nil {
		return nil, err
	}
	var scales []float32
	if quant {
		var err error
		if scales, err = tensor.QuantScales(m, seed); err != nil {
			return nil, fmt.Errorf("runtime: quantization calibration: %w", err)
		}
	}
	spec := wire.SpecFromModel(m)
	for _, addr := range addrs {
		wc, err := dialWorker(addr)
		if err != nil {
			ge.Close()
			return nil, err
		}
		ge.clients = append(ge.clients, wc)
		if err := wc.loadModel(spec, seed, scales); err != nil {
			ge.Close()
			return nil, err
		}
	}
	return ge, nil
}

// validateTiles fails grid construction — rather than a mid-inference worker
// error — when the tile set cannot execute: empty tiles (typically from
// over-partitioning a small output map), or more than one tile over a
// segment containing a layer that consumes the whole feature map (fully
// connected, global average pool). Such a segment cannot be 2D-partitioned —
// every tile would back-propagate to the full input — so the caller must
// split the segment at that layer or run it as a single full tile.
func (ge *GridExecutor) validateTiles() error {
	for k, tile := range ge.tiles {
		if tile.Empty() {
			return fmt.Errorf("runtime: empty tile %d", k)
		}
	}
	if len(ge.tiles) > 1 {
		for i := ge.from; i < ge.to; i++ {
			if ge.model.Layers[i].NeedsFullInput() {
				return fmt.Errorf("runtime: layer %d (%s) needs the full input map and cannot be grid-partitioned across %d tiles; split the segment before it",
					i, ge.model.Layers[i].Name, len(ge.tiles))
			}
		}
	}
	return nil
}

// Infer executes the segment on one input feature map (the full map at
// boundary from) and returns the stitched output.
func (ge *GridExecutor) Infer(taskID int64, input tensor.Tensor) (tensor.Tensor, error) {
	if ge.quant {
		return tensor.Tensor{}, fmt.Errorf("runtime: quantized grid executor serves InferQ, not Infer")
	}
	out, err := ge.infer(taskID, tensor.MapOf(input))
	return out.Tensor(), err
}

// InferQ executes the segment in int8 on one quantized input map (the full
// map at boundary from, at that boundary's calibrated scale) and returns the
// stitched int8 output — byte-identical to a local whole-map RunQ of the
// same segment.
func (ge *GridExecutor) InferQ(taskID int64, input tensor.QTensor) (tensor.QTensor, error) {
	if !ge.quant {
		return tensor.QTensor{}, fmt.Errorf("runtime: grid executor was built without quantization; use NewGridExecutorQuant")
	}
	out, err := ge.infer(taskID, tensor.MapOfQ(input))
	return out.QTensor(), err
}

// infer is the shared body: slice each tile's input region, execute the
// tiles concurrently on their workers, stitch the output grid.
func (ge *GridExecutor) infer(taskID int64, input tensor.FMap) (tensor.FMap, error) {
	outs := make([]tensor.FMap, len(ge.tiles))
	errs := make([]error, len(ge.tiles))
	var wg sync.WaitGroup
	for k, tile := range ge.tiles {
		need := ge.calc.TileRects(ge.from, ge.to, tile)[0]
		sub := input.SliceRect(need)
		wg.Add(1)
		go func(k int, sub tensor.FMap, need, tile partition.Rect) {
			defer wg.Done()
			outs[k], _, errs[k] = ge.clients[k].exec(wire.ExecHeader{
				TaskID: taskID,
				From:   ge.from, To: ge.to,
				OutLo: tile.Rows.Lo, OutHi: tile.Rows.Hi,
				InLo:     need.Rows.Lo,
				OutColLo: tile.Cols.Lo, OutColHi: tile.Cols.Hi,
				InColLo:   need.Cols.Lo,
				ModelName: ge.model.Name,
				Seed:      ge.seed,
			}, sub)
			sub.Recycle() // fully serialized into the request
		}(k, sub, need, tile)
	}
	wg.Wait()
	defer func() {
		for _, o := range outs {
			o.Recycle() // copied into the stitched map, or dropped on error
		}
	}()
	for _, err := range errs {
		if err != nil {
			return tensor.FMap{}, err
		}
	}
	outShape := ge.model.OutShape(ge.to - 1)
	return tensor.Stitch(outs, ge.tiles, outShape.H, outShape.W)
}

// Close disconnects the workers.
func (ge *GridExecutor) Close() error {
	var firstErr error
	for _, wc := range ge.clients {
		if wc == nil {
			continue
		}
		if err := wc.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
