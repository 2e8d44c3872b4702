package nn

import (
	"fmt"
	"strings"
	"sync"
)

// Model is a chain of layers (some of which may be graph Blocks) applied to a
// fixed input shape. The planner's layer indices refer to positions in
// Layers; a segment [i, j) is the contiguous sub-chain Layers[i:j].
type Model struct {
	// Name identifies the architecture ("vgg16", "yolov2", ...).
	Name string
	// Input is the input feature-map shape.
	Input Shape
	// Layers is the chain the planner partitions.
	Layers []Layer

	// shapeOnce guards the lazily computed shape cache so that concurrent
	// Validate/Shapes calls on a shared model are safe. Models are always
	// handled by pointer; do not copy a Model after first use.
	shapeOnce sync.Once
	shapes    []Shape // shapes[i] is the input of layer i.
	shapeErr  error
}

// Validate checks geometric consistency and caches per-layer shapes. It is
// safe for concurrent use; the check runs once per model, so mutate layer
// geometry only before the first call.
func (m *Model) Validate() error {
	m.shapeOnce.Do(func() {
		m.shapes, m.shapeErr = m.computeShapes()
	})
	return m.shapeErr
}

func (m *Model) computeShapes() ([]Shape, error) {
	if len(m.Layers) == 0 {
		return nil, errEmptyModel
	}
	if m.Input.C <= 0 || m.Input.H <= 0 || m.Input.W <= 0 {
		return nil, fmt.Errorf("nn: model %q: invalid input shape %v", m.Name, m.Input)
	}
	shapes := make([]Shape, len(m.Layers)+1)
	shapes[0] = m.Input
	for i := range m.Layers {
		out, err := m.Layers[i].OutShape(shapes[i])
		if err != nil {
			return nil, fmt.Errorf("nn: model %q layer %d: %w", m.Name, i, err)
		}
		shapes[i+1] = out
	}
	return shapes, nil
}

// NumLayers returns the number of planner-visible layers (blocks count as one).
func (m *Model) NumLayers() int { return len(m.Layers) }

// Shapes returns the feature-map shapes at every layer boundary:
// Shapes()[i] is the input of layer i and Shapes()[len(Layers)] is the model
// output. The returned slice is shared; callers must not mutate it.
func (m *Model) Shapes() []Shape {
	if err := m.Validate(); err != nil {
		panic(fmt.Sprintf("nn: Shapes on invalid model: %v", err))
	}
	return m.shapes
}

// InShape returns the input shape of layer i.
func (m *Model) InShape(i int) Shape { return m.Shapes()[i] }

// OutShape returns the output shape of layer i.
func (m *Model) OutShape(i int) Shape { return m.Shapes()[i+1] }

// Output returns the model's final output shape.
func (m *Model) Output() Shape { return m.Shapes()[len(m.Layers)] }

// LayerFLOPs returns the multiply-accumulate count of layer i when producing
// its full output feature map, following the paper's Eq. (2):
// f = k_h * k_w * c_in * w_out * h_out * c_out for convolutions and
// in*out for fully connected layers. Pooling layers are counted as zero
// (the paper ignores them: "they require far fewer FLOPs than conv layers").
func (m *Model) LayerFLOPs(i int) int64 {
	return layerFLOPs(&m.Layers[i], m.InShape(i), m.OutShape(i))
}

func layerFLOPs(l *Layer, in, out Shape) int64 {
	if l.Kind != Block {
		return l.CellMACs(in) * int64(out.H) * int64(out.W)
	}
	var sum int64
	for _, path := range l.Paths {
		cur := in
		for i := range path {
			next, err := path[i].OutShape(cur)
			if err != nil {
				panic(fmt.Sprintf("nn: FLOPs on invalid block path: %v", err))
			}
			sum += layerFLOPs(&path[i], cur, next)
			cur = next
		}
	}
	return sum
}

// CellMACs returns the multiply-accumulates behind one output cell (one
// spatial position, every output channel) of the layer on an input of shape
// in — Eq. (2) per cell: k_h * k_w * c_in/groups * c_out for a convolution,
// the whole in*out product for a fully connected layer, whose output is its
// one 1x1 cell, and zero for pooling. A Block has no cell count of its own;
// its path layers do.
func (l *Layer) CellMACs(in Shape) int64 {
	switch l.Kind {
	case Conv:
		g := int64(1)
		if l.Groups > 1 {
			g = int64(l.Groups)
		}
		return int64(l.KH) * int64(l.KW) * int64(in.C) / g * int64(l.OutC)
	case FullyConnected:
		return int64(in.Elems()) * int64(l.OutF)
	default:
		return 0
	}
}

// TotalFLOPs returns the multiply-accumulate count for a full inference.
func (m *Model) TotalFLOPs() int64 {
	var sum int64
	for i := range m.Layers {
		sum += m.LayerFLOPs(i)
	}
	return sum
}

// SegmentFLOPs returns the MAC count of the contiguous segment [from, to).
func (m *Model) SegmentFLOPs(from, to int) int64 {
	var sum int64
	for i := from; i < to; i++ {
		sum += m.LayerFLOPs(i)
	}
	return sum
}

// String renders a one-line summary, e.g. "vgg16(21 layers, 3x224x224 -> 1000x1x1)".
func (m *Model) String() string {
	if err := m.Validate(); err != nil {
		return fmt.Sprintf("%s(invalid: %v)", m.Name, err)
	}
	return fmt.Sprintf("%s(%d layers, %v -> %v)", m.Name, len(m.Layers), m.Input, m.Output())
}

// Describe renders a multi-line, per-layer summary table useful for
// diagnostics and the quickstart example.
func (m *Model) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  input=%v\n", m.Name, m.Input)
	for i := range m.Layers {
		l := &m.Layers[i]
		fmt.Fprintf(&b, "%3d %-12s %-9s out=%-12v flops=%d\n",
			i, l.Name, l.Kind, m.OutShape(i), m.LayerFLOPs(i))
	}
	return b.String()
}
