package nn

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestVGG16Structure(t *testing.T) {
	m := VGG16()
	if got, want := m.NumLayers(), 21; got != want {
		t.Fatalf("NumLayers = %d, want %d", got, want)
	}
	counts := countKinds(m)
	if counts[Conv] != 13 || counts[MaxPool] != 5 || counts[FullyConnected] != 3 {
		t.Fatalf("kind counts = %v, want 13 conv / 5 pool / 3 fc", counts)
	}
	if got, want := m.Output(), (Shape{C: 1000, H: 1, W: 1}); got != want {
		t.Fatalf("output = %v, want %v", got, want)
	}
	// Feature map after the 5th pool must be 512x7x7.
	shapes := m.Shapes()
	if got, want := shapes[18], (Shape{C: 512, H: 7, W: 7}); got != want {
		t.Fatalf("shape before fc6 = %v, want %v", got, want)
	}
}

func TestVGG16FLOPs(t *testing.T) {
	m := VGG16()
	// The well-known figure for VGG-16 at 224x224 is ~15.47 GMACs for the
	// conv trunk plus ~0.124 GMACs for the classifier.
	total := m.TotalFLOPs()
	if total < 15.3e9 || total > 15.7e9 {
		t.Fatalf("TotalFLOPs = %.3g, want ~15.5e9", float64(total))
	}
	convOnly := VGG16Conv().TotalFLOPs()
	fcPart := total - convOnly
	if fcPart < 0.1e9 || fcPart > 0.15e9 {
		t.Fatalf("fc FLOPs = %.3g, want ~0.124e9", float64(fcPart))
	}
}

// TestTotalFLOPsPinned holds Model.TotalFLOPs — which the benchmark divides
// forward time by — to the integers recorded before the per-cell MAC count
// (Layer.CellMACs) became the one spelling of Eq. (2).
func TestTotalFLOPsPinned(t *testing.T) {
	for _, tc := range []struct {
		m    *Model
		want int64
	}{
		{VGG16(), 15470264320},
		{YOLOv2(), 17316941824},
		{ResNet34(), 3663761408},
		{InceptionV3(), 6088606304},
		{MobileNetV1(), 568740352},
		{Fig13Toy(), 567410688},
		{ToyChain("toy", 8, 3, 16, 64), 27721728},
	} {
		if got := tc.m.TotalFLOPs(); got != tc.want {
			t.Errorf("%s: TotalFLOPs = %d, want %d", tc.m.Name, got, tc.want)
		}
	}
}

func TestYOLOv2Structure(t *testing.T) {
	m := YOLOv2()
	counts := countKinds(m)
	if counts[Conv] != 23 || counts[MaxPool] != 5 {
		t.Fatalf("kind counts = %v, want 23 conv / 5 pool", counts)
	}
	// Detection grid must be 14x14 at 448 input (448 / 2^5).
	out := m.Output()
	if out.H != 14 || out.W != 14 || out.C != 425 {
		t.Fatalf("output = %v, want 425x14x14", out)
	}
	total := m.TotalFLOPs()
	if total < 14e9 || total > 21e9 {
		t.Fatalf("TotalFLOPs = %.3g, want ~17e9 (29.4 BFLOPs at 416 scaled to 448)", float64(total))
	}
}

func TestResNet34Structure(t *testing.T) {
	m := ResNet34()
	blocks := 0
	for i := range m.Layers {
		if m.Layers[i].Kind == Block {
			blocks++
		}
	}
	if blocks != 16 {
		t.Fatalf("residual blocks = %d, want 16", blocks)
	}
	if got, want := m.Output(), (Shape{C: 1000, H: 1, W: 1}); got != want {
		t.Fatalf("output = %v, want %v", got, want)
	}
	counts := countKinds(m)
	// 1 stem + 16 blocks x 2 main convs + 3 projection shortcuts = 36.
	if counts[Conv] != 36 {
		t.Fatalf("conv count = %d, want 36", counts[Conv])
	}
	total := m.TotalFLOPs()
	if total < 3.4e9 || total > 3.9e9 {
		t.Fatalf("TotalFLOPs = %.3g, want ~3.6e9", float64(total))
	}
}

func TestInceptionV3Structure(t *testing.T) {
	m := InceptionV3()
	blocks := 0
	for i := range m.Layers {
		if m.Layers[i].Kind == Block {
			blocks++
		}
	}
	if blocks != 11 {
		t.Fatalf("inception blocks = %d, want 11", blocks)
	}
	if got, want := m.Output(), (Shape{C: 1000, H: 1, W: 1}); got != want {
		t.Fatalf("output = %v, want %v", got, want)
	}
	// Known checkpoints in the reference network.
	shapes := m.Shapes()
	if got, want := shapes[7], (Shape{C: 192, H: 35, W: 35}); got != want {
		t.Fatalf("stem output = %v, want %v", got, want)
	}
	if got, want := shapes[10], (Shape{C: 288, H: 35, W: 35}); got != want {
		t.Fatalf("mixed_5d output = %v, want %v", got, want)
	}
	if got, want := shapes[16], (Shape{C: 1280, H: 8, W: 8}); got != want {
		t.Fatalf("mixed_7a output = %v, want %v", got, want)
	}
	if got, want := shapes[18], (Shape{C: 2048, H: 8, W: 8}); got != want {
		t.Fatalf("mixed_7c output = %v, want %v", got, want)
	}
	total := m.TotalFLOPs()
	// ~5.7 GMACs reference plus ~0.16 GMACs from the documented Mixed_7
	// prefix duplication.
	if total < 5.3e9 || total > 6.3e9 {
		t.Fatalf("TotalFLOPs = %.3g, want ~5.9e9", float64(total))
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		m    *Model
	}{
		{"empty", &Model{Name: "e", Input: Shape{1, 8, 8}}},
		{"bad input", &Model{Name: "b", Input: Shape{0, 8, 8}, Layers: []Layer{Conv3x3("c", 4, ReLU)}}},
		{"kernel too big", &Model{Name: "k", Input: Shape{1, 2, 2}, Layers: []Layer{
			{Name: "c", Kind: Conv, KH: 5, KW: 5, SH: 1, SW: 1, OutC: 4, Act: ReLU},
		}}},
		{"add mismatch", &Model{Name: "a", Input: Shape{1, 8, 8}, Layers: []Layer{
			{Name: "blk", Kind: Block, Combine: Add, Paths: [][]Layer{
				{Conv3x3("p0", 4, ReLU)},
				{Conv3x3("p1", 8, ReLU)},
			}},
		}}},
		{"concat mismatch", &Model{Name: "c", Input: Shape{1, 8, 8}, Layers: []Layer{
			{Name: "blk", Kind: Block, Combine: Concat, Paths: [][]Layer{
				{Conv3x3("p0", 4, ReLU)},
				{{Name: "p1", Kind: MaxPool, KH: 2, KW: 2, SH: 2, SW: 2, Act: NoAct}},
			}},
		}}},
		{"no paths", &Model{Name: "n", Input: Shape{1, 8, 8}, Layers: []Layer{
			{Name: "blk", Kind: Block, Combine: Add},
		}}},
		{"zero kind", &Model{Name: "z", Input: Shape{1, 8, 8}, Layers: []Layer{{Name: "x"}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.m.Validate(); err == nil {
				t.Fatalf("Validate accepted invalid model %q", tc.name)
			}
		})
	}
}

func TestNeedsFullInput(t *testing.T) {
	fc := FC("f", 10, NoAct)
	if !fc.NeedsFullInput() {
		t.Fatal("fc must need full input")
	}
	conv := Conv3x3("c", 4, ReLU)
	if conv.NeedsFullInput() {
		t.Fatal("conv must not need full input")
	}
	blk := Layer{Kind: Block, Combine: Concat, Paths: [][]Layer{
		{Conv1x1("a", 4, ReLU)},
		{{Name: "g", Kind: GlobalAvgPool, Act: NoAct}},
	}}
	if !blk.NeedsFullInput() {
		t.Fatal("block with global pool path must need full input")
	}
}

// convOutBrute counts valid kernel placements directly.
func convOutBrute(in, k, s, p int) int {
	n := 0
	for start := -p; start+k <= in+p; start += s {
		n++
	}
	return n
}

func TestConvOutMatchesBruteForce(t *testing.T) {
	f := func(in, k, s, p uint8) bool {
		inH := int(in%64) + 1
		kk := int(k%7) + 1
		ss := int(s%3) + 1
		pp := int(p % 4)
		if kk > inH+2*pp {
			return true // skip impossible geometry
		}
		return convOut(inH, kk, ss, pp) == convOutBrute(inH, kk, ss, pp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestModelString(t *testing.T) {
	m := VGG16()
	s := m.String()
	if !strings.Contains(s, "vgg16") || !strings.Contains(s, "21 layers") {
		t.Fatalf("String() = %q", s)
	}
}

func TestToyModels(t *testing.T) {
	toy := ToyChain("t", 8, 4, 16, 64)
	counts := countKinds(toy)
	if counts[Conv] != 8 || counts[MaxPool] != 1 {
		t.Fatalf("toy counts = %v", counts)
	}
	fig13 := Fig13Toy()
	c13 := countKinds(fig13)
	if c13[Conv] != 8 || c13[MaxPool] != 2 {
		t.Fatalf("fig13 counts = %v, want 8 conv / 2 pool", c13)
	}
	if fig13.Input.H != 64 {
		t.Fatalf("fig13 input height = %d, want 64", fig13.Input.H)
	}
	tg := TinyGraph()
	if err := tg.Validate(); err != nil {
		t.Fatalf("TinyGraph invalid: %v", err)
	}
}

func TestBlockFLOPsSumOfPaths(t *testing.T) {
	m := TinyGraph()
	// The res2 block (index 2) projects with stride 2: its FLOPs must equal
	// the sum of a hand-computed main path plus projection.
	in := m.InShape(2)
	out := m.OutShape(2)
	if out.H != in.H/2 {
		t.Fatalf("res2 should halve height: in %v out %v", in, out)
	}
	blk := m.LayerFLOPs(2)
	mainA := int64(3*3) * int64(in.C) * int64(out.H) * int64(out.W) * 16
	mainB := int64(3*3) * 16 * int64(out.H) * int64(out.W) * 16
	proj := int64(1*1) * int64(in.C) * int64(out.H) * int64(out.W) * 16
	if blk != mainA+mainB+proj {
		t.Fatalf("block FLOPs = %d, want %d", blk, mainA+mainB+proj)
	}
}

func TestKindAndEnumStrings(t *testing.T) {
	if Conv.String() != "conv" || MaxPool.String() != "maxpool" || Block.String() != "block" {
		t.Fatal("Kind.String mismatch")
	}
	if ReLU.String() != "relu" || LeakyReLU.String() != "leaky" {
		t.Fatal("Activation.String mismatch")
	}
	if Add.String() != "add" || Concat.String() != "concat" {
		t.Fatal("Combine.String mismatch")
	}
	if Kind(99).String() == "" || Activation(99).String() == "" || Combine(99).String() == "" {
		t.Fatal("unknown enum String must be non-empty")
	}
}

func TestShapeHelpers(t *testing.T) {
	s := Shape{C: 3, H: 4, W: 5}
	if s.Elems() != 60 {
		t.Fatalf("Elems = %d", s.Elems())
	}
	if s.Bytes() != 240 {
		t.Fatalf("Bytes = %d", s.Bytes())
	}
	if s.String() != "3x4x5" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestMobileNetV1Structure(t *testing.T) {
	m := MobileNetV1()
	// stem + 13x(dw+pw) + gap + fc = 29 planner layers.
	if got, want := m.NumLayers(), 29; got != want {
		t.Fatalf("NumLayers = %d, want %d", got, want)
	}
	counts := countKinds(m)
	if counts[Conv] != 27 {
		t.Fatalf("conv count = %d, want 27", counts[Conv])
	}
	if got, want := m.Output(), (Shape{C: 1000, H: 1, W: 1}); got != want {
		t.Fatalf("output = %v, want %v", got, want)
	}
	// The feature map before global pooling is 1024x7x7.
	shapes := m.Shapes()
	if got, want := shapes[27], (Shape{C: 1024, H: 7, W: 7}); got != want {
		t.Fatalf("pre-gap shape = %v, want %v", got, want)
	}
	// The well-known MAC count is ~568M (plus ~1M for the classifier).
	total := m.TotalFLOPs()
	if total < 5.4e8 || total > 6.1e8 {
		t.Fatalf("TotalFLOPs = %.3g, want ~5.7e8", float64(total))
	}
}

func TestGroupedConvValidation(t *testing.T) {
	bad := &Model{Name: "g", Input: Shape{C: 3, H: 8, W: 8}, Layers: []Layer{
		{Name: "dw", Kind: Conv, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, OutC: 4, Groups: 2, Act: ReLU},
	}}
	if err := bad.Validate(); err == nil {
		t.Fatal("groups not dividing input channels accepted")
	}
	good := &Model{Name: "g", Input: Shape{C: 4, H: 8, W: 8}, Layers: []Layer{
		{Name: "dw", Kind: Conv, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, OutC: 4, Groups: 4, Act: ReLU},
	}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	// Depthwise FLOPs: k^2 * 1 * H * W * C.
	want := int64(9 * 1 * 8 * 8 * 4)
	if got := good.LayerFLOPs(0); got != want {
		t.Fatalf("depthwise FLOPs = %d, want %d", got, want)
	}
}

// TestRegistry: every registered name builds a valid model, and an unknown
// name is an error naming it.
func TestRegistry(t *testing.T) {
	for _, name := range Names() {
		m, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := ByName("alexnet9000"); err == nil || !strings.Contains(err.Error(), "alexnet9000") {
		t.Fatalf("unknown model: err = %v", err)
	}
}

// countKinds returns how many layers of each kind the model contains,
// descending into blocks (a block's inner conv layers are counted, and the
// block itself is not).
func countKinds(m *Model) map[Kind]int {
	counts := make(map[Kind]int)
	var walk func(ls []Layer)
	walk = func(ls []Layer) {
		for i := range ls {
			if ls[i].Kind == Block {
				for _, p := range ls[i].Paths {
					walk(p)
				}
				continue
			}
			counts[ls[i].Kind]++
		}
	}
	walk(m.Layers)
	return counts
}
