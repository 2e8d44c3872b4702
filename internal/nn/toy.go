package nn

import "fmt"

// ToyChain builds a small chain of 3x3 convolutions with a max-pool inserted
// every poolEvery convolutions (0 disables pooling), over a 1-channel
// square input of the given side. These are the "several toy models with
// different numbers of layers" the paper uses to compare PICO against the
// exhaustive BFS optimum (Table II).
func ToyChain(name string, convLayers, poolEvery, channels, inputSide int) *Model {
	if convLayers <= 0 {
		panic("nn: ToyChain needs at least one conv layer")
	}
	var layers []Layer
	pools := 0
	for i := 1; i <= convLayers; i++ {
		layers = append(layers, Conv3x3(fmt.Sprintf("conv%d", i), channels, ReLU))
		if poolEvery > 0 && i%poolEvery == 0 && i < convLayers {
			pools++
			layers = append(layers, MaxPool2x2(fmt.Sprintf("pool%d", pools)))
		}
	}
	m := &Model{Name: name, Input: Shape{C: 1, H: inputSide, W: inputSide}, Layers: layers}
	mustValidate(m)
	return m
}

// Fig13Toy builds the tiny model of the paper's Fig. 13 comparison: 8
// convolution layers and 2 pooling layers over 64x64 single-channel inputs
// ("the standard 64x64 MNIST dataset" per the paper).
func Fig13Toy() *Model {
	var layers []Layer
	outC := []int{32, 32, 64, 64, 128, 128, 128, 128}
	for i, c := range outC {
		layers = append(layers, Conv3x3(fmt.Sprintf("conv%d", i+1), c, ReLU))
		if i == 3 || i == 5 {
			layers = append(layers, MaxPool2x2(fmt.Sprintf("pool%d", i/2)))
		}
	}
	m := &Model{Name: "fig13-toy", Input: Shape{C: 1, H: 64, W: 64}, Layers: layers}
	mustValidate(m)
	return m
}

// TinyGraph builds a small graph model (stem + residual blocks + an
// inception-style block) used by tests that need block handling without the
// cost of the full ResNet34/InceptionV3 architectures.
func TinyGraph() *Model {
	layers := []Layer{
		{Name: "stem", Kind: Conv, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, OutC: 8, Act: ReLU},
		ResidualBlock("res1", 8, 1, false),
		ResidualBlock("res2", 16, 2, true),
		{
			Name: "mix", Kind: Block, Combine: Concat, Act: NoAct,
			Paths: [][]Layer{
				{Conv1x1("mix_1x1", 8, ReLU)},
				{
					Conv1x1("mix_3x3r", 4, ReLU),
					Conv3x3("mix_3x3", 8, ReLU),
				},
				{
					{Name: "mix_pool", Kind: AvgPool, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, Act: NoAct},
					Conv1x1("mix_poolp", 4, ReLU),
				},
			},
		},
		Conv3x3("head", 8, ReLU),
	}
	m := &Model{Name: "tiny-graph", Input: Shape{C: 3, H: 32, W: 32}, Layers: layers}
	mustValidate(m)
	return m
}

// TinySeparable builds a small graph model of the "versatile CNN" blocks a
// strip planner must not choke on: a residual block whose main path opens
// with a depthwise 3x3 (Groups = channels, then a pointwise 1x1), and a
// one-path block holding an unpadded 1x11 convolution — a kernel wider than
// most maps' halo and a path that only exists at its real input shape.
func TinySeparable() *Model {
	layers := []Layer{
		Conv3x3("stem", 16, ReLU),
		{
			Name: "sep", Kind: Block, Combine: Add, Act: ReLU,
			Paths: [][]Layer{
				{},
				{
					{Name: "dw", Kind: Conv, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, OutC: 16, Groups: 16, Act: ReLU},
					Conv1x1("pw", 16, NoAct),
				},
			},
		},
		{
			Name: "wide", Kind: Block, Combine: Concat, Act: NoAct,
			Paths: [][]Layer{{
				{Name: "c1x11", Kind: Conv, KH: 1, KW: 11, SH: 1, SW: 1, OutC: 32, Act: ReLU},
			}},
		},
		Conv3x3("head", 4, ReLU),
	}
	m := &Model{Name: "tiny-separable", Input: Shape{C: 3, H: 48, W: 48}, Layers: layers}
	mustValidate(m)
	return m
}
