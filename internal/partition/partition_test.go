package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pico/internal/nn"
)

func TestRangeBasics(t *testing.T) {
	r := Range{2, 5}
	if r.Len() != 3 || r.Empty() {
		t.Fatalf("Len/Empty wrong for %v", r)
	}
	if (Range{5, 2}).Len() != 0 || !(Range{5, 5}).Empty() {
		t.Fatal("inverted/empty ranges mishandled")
	}
	if got := r.Intersect(Range{4, 9}); got != (Range{4, 5}) {
		t.Fatalf("Intersect = %v", got)
	}
	if got := r.Intersect(Range{7, 9}); !got.Empty() {
		t.Fatalf("disjoint Intersect = %v, want empty", got)
	}
	if got := r.Hull(Range{7, 9}); got != (Range{2, 9}) {
		t.Fatalf("Hull = %v", got)
	}
	if got := r.Hull(Range{}); got != r {
		t.Fatalf("Hull with empty = %v", got)
	}
	if got := (Range{-3, 99}).Clamp(10); got != (Range{0, 10}) {
		t.Fatalf("Clamp = %v", got)
	}
	if !r.Contains(Range{3, 4}) || r.Contains(Range{3, 6}) {
		t.Fatal("Contains wrong")
	}
	if !r.Contains(Range{}) {
		t.Fatal("every range contains the empty range")
	}
	if Full(7) != (Range{0, 7}) {
		t.Fatal("Full wrong")
	}
	if r.String() != "[2,5)" {
		t.Fatalf("String = %q", r.String())
	}
}

func TestEqualPartition(t *testing.T) {
	parts := Equal(10, 3)
	if len(parts) != 3 {
		t.Fatalf("len = %d", len(parts))
	}
	want := []Range{{0, 4}, {4, 7}, {7, 10}}
	for i, w := range want {
		if parts[i] != w {
			t.Fatalf("parts[%d] = %v, want %v", i, parts[i], w)
		}
	}
	// More devices than rows: trailing strips empty, all rows covered.
	parts = Equal(3, 5)
	covered := 0
	for _, p := range parts {
		covered += p.Len()
	}
	if covered != 3 {
		t.Fatalf("covered = %d", covered)
	}
	if Equal(5, 0) != nil {
		t.Fatal("Equal with p=0 should be nil")
	}
}

func TestEqualPartitionProperties(t *testing.T) {
	f := func(h8, p8 uint8) bool {
		h := int(h8%200) + 1
		p := int(p8%12) + 1
		parts := Equal(h, p)
		lo := 0
		minSz, maxSz := h, 0
		for _, r := range parts {
			if r.Lo != lo {
				return false // contiguous, in order
			}
			lo = r.Hi
			if r.Len() < minSz {
				minSz = r.Len()
			}
			if r.Len() > maxSz {
				maxSz = r.Len()
			}
		}
		return lo == h && maxSz-minSz <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestProportionalPartition(t *testing.T) {
	parts := Proportional(100, []float64{1, 1, 2})
	if parts[2].Len() < parts[0].Len() {
		t.Fatalf("weight-2 strip smaller than weight-1: %v", parts)
	}
	total := 0
	lo := 0
	for _, r := range parts {
		if r.Lo != lo {
			t.Fatalf("non-contiguous: %v", parts)
		}
		lo = r.Hi
		total += r.Len()
	}
	if total != 100 {
		t.Fatalf("covered %d rows", total)
	}
	// All-zero weights degrade to Equal.
	parts = Proportional(9, []float64{0, 0, 0})
	if parts[0].Len() != 3 {
		t.Fatalf("zero weights: %v", parts)
	}
}

func TestSegmentRangesVGGManual(t *testing.T) {
	m := nn.VGG16()
	c := NewCalc(m)
	// conv1_1 (3x3 s1 p1): output rows [10,20) need input rows [9,21).
	r := c.InputRange(0, 1, Range{10, 20})
	if r != (Range{9, 21}) {
		t.Fatalf("conv rf = %v, want [9,21)", r)
	}
	// At the top boundary padding clamps to 0.
	r = c.InputRange(0, 1, Range{0, 5})
	if r != (Range{0, 6}) {
		t.Fatalf("clamped rf = %v, want [0,6)", r)
	}
	// pool1 is layer 2 (2x2 s2): output rows [3,5) need input rows [6,10).
	r = c.InputRange(2, 3, Range{3, 5})
	if r != (Range{6, 10}) {
		t.Fatalf("pool rf = %v, want [6,10)", r)
	}
	// Two convs + pool: back through pool then two 3x3s grows by 1 each.
	r = c.InputRange(0, 3, Range{3, 5})
	if r != (Range{4, 12}) {
		t.Fatalf("segment rf = %v, want [4,12)", r)
	}
}

func TestPaperRFMode(t *testing.T) {
	m := nn.VGG16()
	c := &Calc{M: m, Mode: PaperRF}
	// Paper Eq. 3 for a 3x3 s1 conv: h_in = (h_out-1)*1 + 3 regardless of
	// boundaries; with padding offset the range extends past row 0.
	r := c.InputRange(0, 1, Range{0, 5})
	if r != (Range{-1, 6}) {
		t.Fatalf("paper rf = %v, want [-1,6)", r)
	}
	if r.Len() != 7 {
		t.Fatalf("paper rf len = %d, want (5-1)*1+3 = 7", r.Len())
	}
}

func TestFullInputLayers(t *testing.T) {
	m := nn.VGG16()
	c := NewCalc(m)
	// Crossing fc6 (layer 18) requires the whole 7x7 input.
	r := c.InputRange(18, 19, Range{0, 1})
	if r != (Range{0, 7}) {
		t.Fatalf("fc rf = %v, want [0,7)", r)
	}
}

func TestBlockInputRangeIsPathHull(t *testing.T) {
	m := nn.TinyGraph()
	c := NewCalc(m)
	// Layer 1 is res1 (two 3x3 s1 convs + identity). Output rows [10,12):
	// main path needs [8,14), identity needs [10,12); hull is [8,14).
	r := c.InputRange(1, 2, Range{10, 12})
	if r != (Range{8, 14}) {
		t.Fatalf("block rf = %v, want [8,14)", r)
	}
	// res2 (stride 2 + projection): output rows [2,4) -> main path conv_a
	// output rows... conv_b 3x3 s1 needs [1,5); conv_a 3x3 s2 needs
	// [1*2-1, 4*2-1+3) = [1,10); proj 1x1 s2 needs [4,8). Hull = [1,10).
	r = c.InputRange(2, 3, Range{2, 4})
	if r != (Range{1, 10}) {
		t.Fatalf("res2 rf = %v, want [1,10)", r)
	}
}

func TestSegmentRegionFLOPsFullEqualsModel(t *testing.T) {
	models := []*nn.Model{nn.VGG16(), nn.YOLOv2(), nn.ResNet34(), nn.InceptionV3(), nn.TinyGraph()}
	for _, m := range models {
		c := NewCalc(m)
		L := m.NumLayers()
		outH := m.Output().H
		got := c.SegmentRegionFLOPs(0, L, Full(outH))
		want := m.TotalFLOPs()
		if got != want {
			t.Errorf("%s: full-region FLOPs = %d, want %d", m.Name, got, want)
		}
	}
}

func TestRegionFLOPsMonotone(t *testing.T) {
	m := nn.VGG16Conv()
	c := NewCalc(m)
	f := func(from8, len8, lo8, sz8 uint8) bool {
		from := int(from8) % m.NumLayers()
		to := from + 1 + int(len8)%(m.NumLayers()-from)
		outH := m.OutShape(to - 1).H
		lo := int(lo8) % outH
		sz := int(sz8)%(outH-lo) + 1
		small := c.SegmentRegionFLOPs(from, to, Range{lo, lo + sz})
		if sz < outH-lo {
			bigger := c.SegmentRegionFLOPs(from, to, Range{lo, lo + sz + 1})
			if bigger < small {
				return false
			}
		}
		// A region never costs more than the whole and less than nothing.
		whole := c.SegmentRegionFLOPs(from, to, Full(outH))
		return small >= 0 && small <= whole
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOverlapGrowsWithDepth(t *testing.T) {
	// The paper's Fig. 4 premise: with the fused segment deepening, the sum
	// of per-device FLOPs grows beyond the whole-model FLOPs.
	m := nn.VGG16Conv()
	c := NewCalc(m)
	const p = 4
	prevRatio := 0.0
	for to := 1; to <= 7; to++ {
		outH := m.OutShape(to - 1).H
		parts := Equal(outH, p)
		var sum int64
		for _, r := range parts {
			sum += c.SegmentRegionFLOPs(0, to, r)
		}
		whole := c.SegmentRegionFLOPs(0, to, Full(outH))
		ratio := float64(sum) / float64(whole)
		if ratio < 1-1e-9 {
			t.Fatalf("to=%d: parallel work %.4f < whole", to, ratio)
		}
		if to > 1 && ratio+1e-9 < prevRatio {
			// Redundancy ratio should not shrink as layers fuse deeper
			// (it can plateau right after a pool).
			t.Logf("to=%d: ratio %.4f dipped below %.4f (pool boundary)", to, ratio, prevRatio)
		}
		prevRatio = ratio
	}
	if prevRatio < 1.05 {
		t.Fatalf("fusing 7 layers over 4 devices should add >5%% redundancy, got %.4f", prevRatio)
	}
}

func TestSegmentIOBytes(t *testing.T) {
	m := nn.VGG16()
	c := NewCalc(m)
	in, out := c.SegmentIOBytes(0, 1, Range{0, 112})
	// Input rows [0,113) x 3ch x 224 wide x 4B; output 112 x 64 x 224 x 4.
	if in != int64(113*3*224*4) {
		t.Fatalf("in bytes = %d", in)
	}
	if out != int64(112*64*224*4) {
		t.Fatalf("out bytes = %d", out)
	}
}

func TestBalancedHomogeneousMatchesEqualish(t *testing.T) {
	m := nn.VGG16Conv()
	c := NewCalc(m)
	weights := []float64{1, 1, 1, 1}
	parts := c.Balanced(0, 4, weights)
	covered := 0
	for _, r := range parts {
		covered += r.Len()
	}
	if covered != m.OutShape(3).H {
		t.Fatalf("covered %d rows, want %d", covered, m.OutShape(3).H)
	}
	// Strip work must be within 2x of each other for equal weights.
	var times []float64
	for _, r := range parts {
		if !r.Empty() {
			times = append(times, float64(c.SegmentRegionFLOPs(0, 4, r)))
		}
	}
	for _, tm := range times {
		if tm > 2*times[0]+1 {
			t.Fatalf("unbalanced homogeneous strips: %v", times)
		}
	}
}

func TestBalancedHeterogeneousBeatsEqual(t *testing.T) {
	m := nn.VGG16Conv()
	c := NewCalc(m)
	weights := []float64{2, 1, 0.5, 0.5}
	from, to := 0, 7
	outH := m.OutShape(to - 1).H
	period := func(parts []Range) float64 {
		worst := 0.0
		for k, r := range parts {
			tk := float64(c.SegmentRegionFLOPs(from, to, r)) / weights[k]
			if tk > worst {
				worst = tk
			}
		}
		return worst
	}
	bal := period(c.Balanced(from, to, weights))
	eq := period(Equal(outH, len(weights)))
	if bal >= eq {
		t.Fatalf("balanced period %.3g >= equal period %.3g", bal, eq)
	}
	// The balanced bottleneck can be at most ~35% above the ideal
	// (overlap makes perfection unattainable, but it must be close).
	var totalW float64
	for _, w := range weights {
		totalW += w
	}
	ideal := float64(c.SegmentRegionFLOPs(from, to, Full(outH))) / totalW
	if bal > ideal*1.35 {
		t.Fatalf("balanced period %.3g too far above ideal %.3g", bal, ideal)
	}
}

func TestBalancedFullInputSegment(t *testing.T) {
	m := nn.VGG16()
	c := NewCalc(m)
	weights := []float64{1, 3, 2}
	parts := c.Balanced(18, 21, weights) // the fc head
	if !parts[0].Empty() || !parts[2].Empty() {
		t.Fatalf("fc segment must go to one device: %v", parts)
	}
	if parts[1] != (Range{0, 1}) {
		t.Fatalf("fastest device must own the fc head: %v", parts)
	}
}

func TestBalancedZeroWeights(t *testing.T) {
	m := nn.VGG16Conv()
	c := NewCalc(m)
	parts := c.Balanced(0, 2, []float64{0, 0})
	covered := 0
	for _, r := range parts {
		covered += r.Len()
	}
	if covered != m.OutShape(1).H {
		t.Fatalf("zero-weight fallback covered %d rows", covered)
	}
}

func TestBalancedPropertyCoversExactly(t *testing.T) {
	m := nn.VGG16Conv()
	c := NewCalc(m)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		from := rng.Intn(m.NumLayers() - 1)
		to := from + 1 + rng.Intn(min(5, m.NumLayers()-from))
		p := 1 + rng.Intn(6)
		weights := make([]float64, p)
		for i := range weights {
			weights[i] = 0.25 + rng.Float64()*3
		}
		parts := c.Balanced(from, to, weights)
		outH := m.OutShape(to - 1).H
		// Strips must be disjoint, sorted by construction order, and
		// cover [0, outH) exactly.
		covered := make([]bool, outH)
		for _, r := range parts {
			for row := r.Lo; row < r.Hi; row++ {
				if covered[row] {
					t.Fatalf("row %d covered twice: %v", row, parts)
				}
				covered[row] = true
			}
		}
		for row, ok := range covered {
			if !ok {
				t.Fatalf("row %d uncovered: %v (segment [%d,%d), weights %v)", row, parts, from, to, weights)
			}
		}
	}
}

func TestRedundancyNoOverlapFor1x1(t *testing.T) {
	// A model of only 1x1 convolutions has zero overlap however it is
	// partitioned — the property the paper's NP-hardness reduction uses.
	layers := []nn.Layer{
		nn.Conv1x1("a", 8, nn.ReLU),
		nn.Conv1x1("b", 8, nn.ReLU),
		nn.Conv1x1("c", 8, nn.ReLU),
	}
	m := &nn.Model{Name: "ones", Input: nn.Shape{C: 4, H: 32, W: 32}, Layers: layers}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	c := NewCalc(m)
	stats := c.Redundancy(0, 3, GridPartition(32, 32, 4, 1))
	if stats.RedundantFLOPs != 0 {
		t.Fatalf("1x1 chain has redundancy %.3g", stats.RedundantFLOPs)
	}
	if stats.Ratio() != 0 {
		t.Fatalf("ratio = %v", stats.Ratio())
	}
}

func TestRedundancySingleDeviceZero(t *testing.T) {
	m := nn.VGG16Conv()
	c := NewCalc(m)
	out := m.OutShape(6)
	stats := c.Redundancy(0, 7, []Rect{FullRect(out.H, out.W)})
	if stats.RedundantFLOPs != 0 {
		t.Fatalf("single device redundancy = %.3g", stats.RedundantFLOPs)
	}
	if stats.TotalFLOPs != float64(m.SegmentFLOPs(0, 7)) {
		t.Fatalf("total = %.6g, want %.6g", stats.TotalFLOPs, float64(m.SegmentFLOPs(0, 7)))
	}
}

func TestRedundancyGrowsWithDevices(t *testing.T) {
	m := nn.VGG16Conv()
	c := NewCalc(m)
	out := m.OutShape(6)
	prev := -1.0
	for _, p := range []int{2, 4, 8} {
		stats := c.Redundancy(0, 7, GridPartition(out.H, out.W, p, 1))
		if stats.Ratio() <= prev {
			t.Fatalf("redundancy ratio not increasing: p=%d ratio=%.4f prev=%.4f", p, stats.Ratio(), prev)
		}
		prev = stats.Ratio()
	}
}

func TestRedundancyConsistentWithRegionFLOPs(t *testing.T) {
	// TotalFLOPs from the occupancy walk must equal the sum of per-device
	// SegmentRegionFLOPs for chain models.
	m := nn.VGG16Conv()
	c := NewCalc(m)
	from, to := 2, 9
	outH := m.OutShape(to - 1).H
	parts := Equal(outH, 5)
	stats := c.Redundancy(from, to, GridPartition(outH, m.OutShape(to-1).W, 5, 1))
	var want float64
	for _, r := range parts {
		want += float64(c.SegmentRegionFLOPs(from, to, r))
	}
	if diff := stats.TotalFLOPs - want; diff > 1e-6*want || diff < -1e-6*want {
		t.Fatalf("occupancy total %.6g != region sum %.6g", stats.TotalFLOPs, want)
	}
	// Per-device totals sum to the global total; same for redundant work.
	var pd, pr float64
	for k := range parts {
		pd += stats.PerDeviceFLOPs[k]
		pr += stats.PerDeviceRedundant[k]
	}
	if d := pd - stats.TotalFLOPs; d > 1e-6 || d < -1e-6 {
		t.Fatalf("per-device totals %.6g != %.6g", pd, stats.TotalFLOPs)
	}
	if d := pr - stats.RedundantFLOPs; d > 1e-6 || d < -1e-6 {
		t.Fatalf("per-device redundant %.6g != %.6g", pr, stats.RedundantFLOPs)
	}
}

func TestRedundancyGraphModel(t *testing.T) {
	m := nn.TinyGraph()
	c := NewCalc(m)
	outH := m.Output().H
	stats := c.Redundancy(0, m.NumLayers(), GridPartition(outH, m.Output().W, 3, 1))
	if stats.TotalFLOPs <= 0 {
		t.Fatal("graph redundancy total is zero")
	}
	if stats.Ratio() <= 0 || stats.Ratio() >= 1 {
		t.Fatalf("graph redundancy ratio = %.4f, want (0,1)", stats.Ratio())
	}
	var sum float64
	for _, r := range Equal(outH, 3) {
		sum += float64(c.SegmentRegionFLOPs(0, m.NumLayers(), r))
	}
	if d := stats.TotalFLOPs - sum; d > 1e-6*sum || d < -1e-6*sum {
		t.Fatalf("graph occupancy total %.6g != region sum %.6g", stats.TotalFLOPs, sum)
	}
}
