package tensor

import (
	"fmt"
	"strconv"

	"pico/internal/nn"
	"pico/internal/partition"
)

// Quantized execution. The executor calibrates one symmetric activation
// scale per layer boundary by running the float32 path once on a
// deterministic calibration input derived from (model input shape, seed) —
// the same trick that lets workers materialise weights without shipping
// them lets every node derive identical scales without shipping those
// either. Pool and global-pool boundaries inherit their input's scale
// (pooled values never leave the input range), so requantization happens
// only where conv/fc epilogues already touch every element.

// Quantized reports whether the executor was built with WithQuantized.
func (e *Executor) Quantized() bool { return e.quant }

// QuantScales returns the calibrated activation scale of every layer
// boundary: scales[i] is the scale of the feature map entering layer i,
// scales[NumLayers] the scale of the model output. Calibration runs once
// per executor and is deterministic in (model, seed).
func (e *Executor) QuantScales() ([]float32, error) {
	e.scOnce.Do(func() { e.scales, e.scErr = e.calibrate() })
	return e.scales, e.scErr
}

// QuantScales calibrates activation scales for (m, seed) without requiring
// the caller to hold an executor — the pipeline coordinator uses it to
// quantize task inputs at the first boundary.
func QuantScales(m *nn.Model, seed int64) ([]float32, error) {
	e, err := NewExecutor(m, seed, WithQuantized())
	if err != nil {
		return nil, err
	}
	return e.QuantScales()
}

// calibrationInput is the deterministic stand-in for a calibration set: the
// same (shape, seed) pair yields the identical tensor in every process.
func calibrationInput(s nn.Shape, seed int64) Tensor {
	rng := weightRNG(seed, "quant-calibration")
	t := New(s.C, s.H, s.W)
	for i := range t.Data {
		t.Data[i] = rng.Float32()*2 - 1
	}
	return t
}

// calibrate runs the float path once over the calibration input, recording
// the max-abs activation at every layer boundary.
func (e *Executor) calibrate() ([]float32, error) {
	scales := make([]float32, e.m.NumLayers()+1)
	in := calibrationInput(e.m.Input, e.seed)
	scales[0] = scaleFor(maxAbs(in.Data))
	shapes := e.m.Shapes()
	cur := in
	for i := 0; i < e.m.NumLayers(); i++ {
		g := geom{in: shapes[i], out: partition.FullRect(shapes[i+1].H, shapes[i+1].W)}
		res, err := e.runLayer(&e.m.Layers[i], strconv.Itoa(i), MapOf(cur), g, 0, 0)
		if err != nil {
			return nil, fmt.Errorf("tensor: calibrating layer %d (%s): %w", i, e.m.Layers[i].Name, err)
		}
		if i > 0 {
			Recycle(cur)
		}
		next := res.Tensor()
		switch e.m.Layers[i].Kind {
		case nn.MaxPool, nn.AvgPool, nn.GlobalAvgPool:
			scales[i+1] = scales[i]
		default:
			scales[i+1] = scaleFor(maxAbs(next.Data))
		}
		cur = next
	}
	Recycle(cur)
	return scales, nil
}
