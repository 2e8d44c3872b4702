package tensor

import (
	"fmt"
	"math"
	"strconv"

	"pico/internal/nn"
	"pico/internal/partition"
)

// Quantized execution. One symmetric activation scale per layer boundary is
// derived by running the float32 path once on a deterministic calibration
// input made from (model input shape, seed). The vector is a function of
// (model, seed) alone, so a session derives it once — the coordinator
// calibrates, the load frame ships it, each worker validates what it receives
// (checkQuantScales) and presets it (WithQuantScales) — and any node can still
// re-derive it: an executor built without scales calibrates on first use.
// Pool and global-pool boundaries inherit their input's scale (pooled values
// never leave the input range), so requantization happens only where conv/fc
// epilogues already touch every element.

// Quantized reports whether the executor was built with WithQuantized.
func (e *Executor) Quantized() bool { return e.quant }

// QuantScales returns the activation scale of every layer boundary:
// scales[i] is the scale of the feature map entering layer i,
// scales[NumLayers] the scale of the model output. Unless they were preset,
// the first call calibrates — on a scratch executor, so the float weights and
// the kernel time of a forward nobody requested stay off this one.
// Calibration is deterministic in (model, seed).
func (e *Executor) QuantScales() ([]float32, error) {
	e.scOnce.Do(func() {
		if e.scales == nil {
			scratch := &Executor{m: e.m, seed: e.seed, calc: e.calc, par: e.par, k: e.k}
			e.scales, e.scErr = scratch.calibrate()
		}
	})
	return e.scales, e.scErr
}

// QuantScales calibrates activation scales for (m, seed) without requiring
// the caller to hold an executor — coordinators use it to derive the vector
// they ship to workers and quantize task inputs with.
func QuantScales(m *nn.Model, seed int64) ([]float32, error) {
	e, err := NewExecutor(m, seed, WithQuantized())
	if err != nil {
		return nil, err
	}
	return e.QuantScales()
}

// checkQuantScales vets a scale vector received from another node against
// everything (m, seed) pins down short of a forward pass: one finite positive
// scale per boundary, pool and global-pool outputs inheriting their input's
// scale bit for bit, and the input boundary equal to the scale re-derived
// from the calibration input — which catches a vector calibrated for another
// seed or input shape.
func checkQuantScales(m *nn.Model, seed int64, scales []float32) error {
	if len(scales) != m.NumLayers()+1 {
		return fmt.Errorf("tensor: %d quantization scales for the %d boundaries of %s", len(scales), m.NumLayers()+1, m.Name)
	}
	for i, s := range scales {
		if !(s > 0) || math.IsInf(float64(s), 0) {
			return fmt.Errorf("tensor: quantization scale %g at boundary %d is not finite and positive", s, i)
		}
		if i > 0 && inheritsScale(m.Layers[i-1].Kind) && math.Float32bits(s) != math.Float32bits(scales[i-1]) {
			return fmt.Errorf("tensor: boundary %d follows a pool and must inherit scale %g, got %g", i, scales[i-1], s)
		}
	}
	if want := scaleFor(maxAbs(calibrationInput(m.Input, seed).Data)); math.Float32bits(scales[0]) != math.Float32bits(want) {
		return fmt.Errorf("tensor: input scale %g is not the %g that %s with seed %d calibrates to", scales[0], want, m.Name, seed)
	}
	return nil
}

// inheritsScale reports whether a layer's output keeps its input's scale.
func inheritsScale(k nn.Kind) bool {
	return k == nn.MaxPool || k == nn.AvgPool || k == nn.GlobalAvgPool
}

// calibrationInput is the deterministic stand-in for a calibration set: the
// same (shape, seed) pair yields the identical tensor in every process.
func calibrationInput(s nn.Shape, seed int64) Tensor {
	t := New(s.C, s.H, s.W)
	uniform(weightRNG(seed, "quant-calibration"), t.Data, 1)
	return t
}

// calibrationAhead bounds how far calibration's weight builder may run ahead
// of its forward, in weights built for layers the forward has not yet run
// past: 1 Mi float32 weights, 4 MiB, twice that with GEMM panels. A bound of
// one layer would serialise a depthwise-pointwise chain — the pointwise
// layer's build, the heavy one, would overlap only the depthwise layer's
// cheap run — and on two cores the forward's kernels wait for the builder's:
// MobileNetV1 calibrated in ~60 ms that way, against ~35 ms with this bound,
// which peaks at half its weights.
const calibrationAhead = 1 << 20

// calibrate runs the float path once over the calibration input, recording
// the max-abs activation at every layer boundary. The forward is streamed: a
// helper goroutine builds the layers' weights in order, up to
// calibrationAhead weights ahead, while the forward runs the layers already
// built, and each layer's weights are dropped once it has run — so the
// executor never holds the whole float model and its GEMM panels at once, and
// ends with empty caches.
func (e *Executor) calibrate() ([]float32, error) {
	n := e.m.NumLayers()
	shapes := e.m.Shapes()
	// Both channels hold a message per layer, so neither side blocks on a
	// send; the helper waits only for ran, to stay within the bound.
	built, ran, stop := make(chan error, n), make(chan struct{}, n), make(chan struct{})
	go func() {
		defer close(built)
		sizes := make([]int64, n)
		var ahead int64 // weights built for layers the forward has not run past
		for i, done := 0, 0; i < n; i++ {
			for ahead > calibrationAhead {
				select {
				case <-ran:
					ahead -= sizes[done]
					done++
				case <-stop:
					return
				}
			}
			w, err := warmLayer(e, &e.k.f, &e.m.Layers[i], strconv.Itoa(i), shapes[i], 0, 0)
			sizes[i], ahead = w, ahead+w
			built <- err
		}
	}()
	defer func() {
		close(stop)
		for range built { // wait for the helper to exit
		}
	}()

	scales := make([]float32, n+1)
	in := calibrationInput(e.m.Input, e.seed)
	scales[0] = scaleFor(maxAbs(in.Data))
	cur := in
	for i := 0; i < n; i++ {
		key := strconv.Itoa(i)
		err := <-built
		var res FMap
		if err == nil {
			g := geom{in: shapes[i], out: partition.FullRect(shapes[i+1].H, shapes[i+1].W)}
			res, err = e.runLayer(&e.m.Layers[i], key, MapOf(cur), g, 0, 0)
		}
		if err != nil {
			return nil, fmt.Errorf("tensor: calibrating layer %d (%s): %w", i, e.m.Layers[i].Name, err)
		}
		e.conv.drop(key)
		e.fc.drop(key)
		ran <- struct{}{}
		if i > 0 {
			Recycle(cur)
		}
		next := res.Tensor()
		if inheritsScale(e.m.Layers[i].Kind) {
			scales[i+1] = scales[i]
		} else {
			scales[i+1] = scaleFor(maxAbs(next.Data))
		}
		cur = next
	}
	Recycle(cur)
	return scales, nil
}
