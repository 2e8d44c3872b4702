package partition

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"pico/internal/nn"
)

var update = flag.Bool("update", false, "rewrite testdata/segments.golden from this tree's row API")

// TestSegmentGolden pins the integers the exported row API returns —
// SegmentRegionFLOPs, SegmentIOBytes, InputRange — for 40 (model, segment,
// rows) triples over the paper's models, in both receptive-field modes, to
// the values recorded in testdata/segments.golden before the row
// back-propagator was folded into the rect one.
func TestSegmentGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var got strings.Builder
	for _, m := range []*nn.Model{nn.VGG16(), nn.YOLOv2(), nn.ResNet34(), nn.InceptionV3(), nn.MobileNetV1()} {
		for trial := 0; trial < 8; trial++ {
			from, to := 0, m.NumLayers() // trial 0: the whole model
			for redraw := trial > 0; redraw; redraw = m.OutShape(to-1).H == 1 {
				from = rng.Intn(m.NumLayers())
				to = from + 1 + rng.Intn(min(8, m.NumLayers()-from))
			}
			outH := m.OutShape(to - 1).H
			lo := rng.Intn(outH)
			rows := Range{lo, lo + 1 + rng.Intn(outH-lo)}
			for _, mode := range []RFMode{Clamped, PaperRF} {
				c := &Calc{M: m, Mode: mode}
				in, out := c.SegmentIOBytes(from, to, rows)
				fmt.Fprintf(&got, "%s [%d,%d) %v mode=%d flops=%d in=%v inBytes=%d outBytes=%d\n",
					m.Name, from, to, rows, mode, c.SegmentRegionFLOPs(from, to, rows), c.InputRange(from, to, rows), in, out)
			}
		}
	}
	const path = "testdata/segments.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d rows, golden holds %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("row API moved:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}
