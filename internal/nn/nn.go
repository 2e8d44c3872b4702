// Package nn describes convolutional neural networks at the granularity the
// PICO planner operates on: layer geometry (kernels, strides, padding,
// channels), not weights. A Model is either a chain of layers or a chain of
// graph blocks (ResNet / Inception style), where each block is a set of
// parallel paths combined by addition or channel concatenation. The paper
// treats such a block as one "special layer" (§IV-B); everything in this
// package is weight-free because partitioning cost and overlap depend only on
// geometry.
package nn

import (
	"errors"
	"fmt"
)

// Kind identifies the operator a Layer performs.
type Kind int

// Layer kinds. Enums start at 1 so that the zero value is invalid and
// uninitialised layers are caught by Validate.
const (
	// Conv is a 2-D convolution (possibly with non-square kernels such as
	// InceptionV3's 1x7 and 7x1 factorized convolutions).
	Conv Kind = iota + 1
	// MaxPool is a max-pooling downsampling layer.
	MaxPool
	// AvgPool is an average-pooling downsampling layer.
	AvgPool
	// GlobalAvgPool averages each channel over the whole spatial extent.
	// It requires the full input feature map and therefore cannot be
	// partitioned along rows.
	GlobalAvgPool
	// FullyConnected is a dense layer over the flattened input. Like
	// GlobalAvgPool it requires the full input feature map.
	FullyConnected
	// Block is a graph super-layer: parallel Paths from the block input,
	// combined by Combine. The PICO planner treats it as a single layer.
	Block
)

func (k Kind) String() string {
	switch k {
	case Conv:
		return "conv"
	case MaxPool:
		return "maxpool"
	case AvgPool:
		return "avgpool"
	case GlobalAvgPool:
		return "gavgpool"
	case FullyConnected:
		return "fc"
	case Block:
		return "block"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Activation identifies the elementwise nonlinearity applied after a layer.
type Activation int

// Supported activations.
const (
	// NoAct applies no nonlinearity.
	NoAct Activation = iota + 1
	// ReLU is max(0, x).
	ReLU
	// LeakyReLU is x for x>0 and 0.1*x otherwise (Darknet convention).
	LeakyReLU
)

func (a Activation) String() string {
	switch a {
	case NoAct:
		return "none"
	case ReLU:
		return "relu"
	case LeakyReLU:
		return "leaky"
	default:
		return fmt.Sprintf("act(%d)", int(a))
	}
}

// Combine identifies how a Block merges the outputs of its parallel paths.
type Combine int

// Block combination modes.
const (
	// Add sums path outputs elementwise (residual blocks). All paths must
	// produce identical shapes.
	Add Combine = iota + 1
	// Concat concatenates path outputs along the channel axis (Inception
	// blocks). All paths must agree on spatial dimensions.
	Concat
)

func (c Combine) String() string {
	switch c {
	case Add:
		return "add"
	case Concat:
		return "concat"
	default:
		return fmt.Sprintf("combine(%d)", int(c))
	}
}

// Shape is the extent of a CHW feature map.
type Shape struct {
	C, H, W int
}

// Elems returns the number of scalars in the feature map.
func (s Shape) Elems() int { return s.C * s.H * s.W }

// Bytes returns the size in bytes of the feature map stored as float32,
// matching the paper's φ(F) feature-size function.
func (s Shape) Bytes() int64 { return int64(s.Elems()) * 4 }

func (s Shape) String() string {
	return fmt.Sprintf("%dx%dx%d", s.C, s.H, s.W)
}

// Layer is one operator in a model. Only the fields relevant to the layer's
// Kind are meaningful; Validate enforces consistency.
type Layer struct {
	// Name is a human-readable identifier ("conv1_1", "mixed_5b", ...).
	Name string
	// Kind selects the operator.
	Kind Kind

	// KH, KW are kernel extents (Conv, MaxPool, AvgPool).
	KH, KW int
	// SH, SW are strides (Conv, MaxPool, AvgPool).
	SH, SW int
	// PH, PW are symmetric zero paddings applied to both sides of the
	// height and width axes (Conv, MaxPool, AvgPool).
	PH, PW int
	// OutC is the number of output channels (Conv only; pools preserve
	// channels).
	OutC int
	// Groups splits a convolution into channel groups (0 or 1 = dense;
	// Groups == input channels with OutC == input channels is a depthwise
	// convolution, the MobileNet building block). Input and output
	// channels must both divide by Groups.
	Groups int

	// OutF is the number of output features (FullyConnected only).
	OutF int

	// Act is the post-layer activation.
	Act Activation
	// BatchNorm records whether the layer is followed by batch
	// normalization (folded into the conv at inference time; it adds a
	// negligible per-element cost and no communication, so the cost model
	// ignores it, but the tensor engine honours it).
	BatchNorm bool

	// Paths are the parallel branches of a Block, each a chain applied to
	// the block input. An empty branch ([]Layer{}) is the identity
	// shortcut. Non-Block layers must have nil Paths.
	Paths [][]Layer
	// Combine selects how a Block's path outputs merge.
	Combine Combine
}

// NeedsFullInput reports whether computing any part of this layer's output
// requires the entire input feature map.
func (l *Layer) NeedsFullInput() bool {
	switch l.Kind {
	case FullyConnected, GlobalAvgPool:
		return true
	case Block:
		for _, p := range l.Paths {
			for i := range p {
				if p[i].NeedsFullInput() {
					return true
				}
			}
		}
		return false
	default:
		return false
	}
}

// OutShape computes the layer's output shape for the given input shape.
// It returns an error when the geometry is inconsistent (e.g. kernel larger
// than the padded input).
func (l *Layer) OutShape(in Shape) (Shape, error) {
	switch l.Kind {
	case Conv, MaxPool, AvgPool:
		h := convOut(in.H, l.KH, l.SH, l.PH)
		w := convOut(in.W, l.KW, l.SW, l.PW)
		if h <= 0 || w <= 0 {
			return Shape{}, fmt.Errorf("nn: layer %q: non-positive output %dx%d for input %v", l.Name, h, w, in)
		}
		c := in.C
		if l.Kind == Conv {
			if g := l.Groups; g > 1 {
				if in.C%g != 0 || l.OutC%g != 0 {
					return Shape{}, fmt.Errorf("nn: layer %q: groups %d do not divide channels %d->%d", l.Name, g, in.C, l.OutC)
				}
			}
			c = l.OutC
		}
		return Shape{C: c, H: h, W: w}, nil
	case GlobalAvgPool:
		return Shape{C: in.C, H: 1, W: 1}, nil
	case FullyConnected:
		if l.OutF <= 0 {
			return Shape{}, fmt.Errorf("nn: layer %q: fc with OutF=%d", l.Name, l.OutF)
		}
		return Shape{C: l.OutF, H: 1, W: 1}, nil
	case Block:
		return l.blockOutShape(in)
	default:
		return Shape{}, fmt.Errorf("nn: layer %q: unknown kind %v", l.Name, l.Kind)
	}
}

func (l *Layer) blockOutShape(in Shape) (Shape, error) {
	if len(l.Paths) == 0 {
		return Shape{}, fmt.Errorf("nn: block %q has no paths", l.Name)
	}
	var out Shape
	for pi, path := range l.Paths {
		cur := in
		for i := range path {
			next, err := path[i].OutShape(cur)
			if err != nil {
				return Shape{}, fmt.Errorf("nn: block %q path %d: %w", l.Name, pi, err)
			}
			cur = next
		}
		if pi == 0 {
			out = cur
			continue
		}
		switch l.Combine {
		case Add:
			if cur != out {
				return Shape{}, fmt.Errorf("nn: block %q: add paths disagree: %v vs %v", l.Name, out, cur)
			}
		case Concat:
			if cur.H != out.H || cur.W != out.W {
				return Shape{}, fmt.Errorf("nn: block %q: concat paths disagree spatially: %v vs %v", l.Name, out, cur)
			}
			out.C += cur.C
		default:
			return Shape{}, fmt.Errorf("nn: block %q: invalid combine %v", l.Name, l.Combine)
		}
	}
	return out, nil
}

func convOut(in, k, s, p int) int {
	if s <= 0 {
		return -1
	}
	return (in+2*p-k)/s + 1
}

// Conv3x3 is a convenience constructor for a 3x3 stride-1 pad-1 convolution.
func Conv3x3(name string, outC int, act Activation) Layer {
	return Layer{Name: name, Kind: Conv, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, OutC: outC, Act: act}
}

// Conv1x1 is a convenience constructor for a 1x1 stride-1 convolution.
func Conv1x1(name string, outC int, act Activation) Layer {
	return Layer{Name: name, Kind: Conv, KH: 1, KW: 1, SH: 1, SW: 1, OutC: outC, Act: act}
}

// MaxPool2x2 is a convenience constructor for a 2x2 stride-2 max pool.
func MaxPool2x2(name string) Layer {
	return Layer{Name: name, Kind: MaxPool, KH: 2, KW: 2, SH: 2, SW: 2, Act: NoAct}
}

// FC is a convenience constructor for a fully connected layer.
func FC(name string, outF int, act Activation) Layer {
	return Layer{Name: name, Kind: FullyConnected, OutF: outF, Act: act}
}

var errEmptyModel = errors.New("nn: model has no layers")
