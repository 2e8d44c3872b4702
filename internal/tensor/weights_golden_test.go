package tensor

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"pico/internal/nn"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from what this tree computes")

// TestGeneratedWeightsUnchanged pins the weight generator: every float
// parameter of MobileNetV1, a ToyChain and TinyGraph (block paths included),
// and every int8 operand of MobileNetV1 — quantized weights, the GEMM panel,
// the epilogue's scale and bias, the output scale — must hash to the FNV-64a
// value recorded in testdata/weights.golden. Weights are the contract between
// nodes that never ship them, so a faster generator or quantizer must draw
// and round exactly what the recorded one did. The file is written with
// -update and only read afterwards.
func TestGeneratedWeightsUnchanged(t *testing.T) {
	var got strings.Builder
	for _, m := range []*nn.Model{nn.MobileNetV1(), nn.ToyChain("toy", 8, 3, 16, 64), nn.TinyGraph()} {
		e, err := NewExecutor(m, 1)
		if err != nil {
			t.Fatal(err)
		}
		walkWeightLayers(t, m, func(key string, l *nn.Layer, in nn.Shape, _ int) {
			var p *fparams
			switch l.Kind {
			case nn.Conv:
				p = &e.convW(key, l, in.C, 0, 0).fparams
			case nn.FullyConnected:
				p = &e.fcW(key, l, in.Elems(), 0, 0).fparams
			default:
				return
			}
			for _, f := range []struct {
				name string
				v    []float32
			}{{"w", p.w}, {"bias", p.bias}, {"bnScale", p.bnScale}, {"bnShift", p.bnShift}} {
				fmt.Fprintf(&got, "%s f32 %s %s %d %016x\n", m.Name, key, f.name, len(f.v), hashWords(f.v))
			}
		})
	}
	m := nn.MobileNetV1()
	e, err := NewExecutor(m, 1, WithQuantized())
	if err != nil {
		t.Fatal(err)
	}
	scales, err := e.QuantScales()
	if err != nil {
		t.Fatal(err)
	}
	walkWeightLayers(t, m, func(key string, l *nn.Layer, in nn.Shape, i int) {
		var q *qparams
		var pw []int32
		switch l.Kind {
		case nn.Conv:
			qw := e.qconvW(key, l, in.C, scales[i], scales[i+1])
			q, pw = &qw.qparams, qw.pw
		case nn.FullyConnected:
			q = e.qfcW(key, l, in.Elems(), scales[i], scales[i+1])
		default:
			return
		}
		fmt.Fprintf(&got, "%s int8 %s wq %d %016x\n", m.Name, key, len(q.wq), hashWords(q.wq))
		fmt.Fprintf(&got, "%s int8 %s pw %d %016x\n", m.Name, key, len(pw), hashWords(pw))
		fmt.Fprintf(&got, "%s int8 %s effScale %d %016x\n", m.Name, key, len(q.effScale), hashWords(q.effScale))
		fmt.Fprintf(&got, "%s int8 %s effBias %d %016x\n", m.Name, key, len(q.effBias), hashWords(q.effBias))
		fmt.Fprintf(&got, "%s int8 %s scale %08x\n", m.Name, key, math.Float32bits(q.scale))
	})

	checkGolden(t, "testdata/weights.golden", got.String())
}

// TestForwardUnchanged pins what the engine computes: the float32 and int8
// outputs of MobileNetV1, a ToyChain and TinyGraph (block paths included) on
// one seeded input, at parallelism 1 and 2, must hash to the FNV-64a values
// in testdata/forward.golden. Every build runs it — amd64 with whichever
// vector tiles the host has, and the purego tag (`make purego`), which is
// what every other architecture runs — so the golden pins the vector kernels
// and the portable ones to the same bits.
func TestForwardUnchanged(t *testing.T) {
	var got strings.Builder
	for _, m := range []*nn.Model{nn.MobileNetV1(), nn.ToyChain("toy", 8, 3, 16, 64), nn.TinyGraph()} {
		in := RandomInput(m.Input, 32)
		for _, par := range []int{1, 2} {
			e, err := NewExecutor(m, 1, WithParallelism(par), WithQuantized())
			if err != nil {
				t.Fatal(err)
			}
			out, err := e.Run(in)
			if err != nil {
				t.Fatal(err)
			}
			q, err := e.RunQ(in)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%s f32 par%d %d %016x\n", m.Name, par, len(out.Data), hashWords(out.Data))
			fmt.Fprintf(&got, "%s int8 par%d %d %016x %08x\n", m.Name, par, len(q.Data), hashWords(q.Data), math.Float32bits(q.Scale))
		}
	}
	checkGolden(t, "testdata/forward.golden", got.String())
}

// checkGolden compares got line by line with the golden file at path, or
// rewrites the file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, %s holds %d", len(gotLines)-1, path, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("%s moved:\n got  %s\n want %s", path, gotLines[i], wantLines[i])
		}
	}
}

// TestQConvPanelUnpacksToWeights reads every int8 convolution's GEMM panel
// of MobileNetV1 (depthwise layers: one channel a group) back into weights:
// byte i of dword ((grp*obg+ob)*quads+q)*qpwMR+b is tap 4q+i of the group's
// channel ob*qpwMR+b, and every byte past the last tap or channel is zero.
// So the golden's pw lines are a layout of its wq lines, nothing more; and
// each channel's seed is -128 times the sum of its weights, with a zero block
// of spare capacity behind the last.
func TestQConvPanelUnpacksToWeights(t *testing.T) {
	m := nn.MobileNetV1()
	e, err := NewExecutor(m, 1, WithQuantized())
	if err != nil {
		t.Fatal(err)
	}
	scales, err := e.QuantScales()
	if err != nil {
		t.Fatal(err)
	}
	walkWeightLayers(t, m, func(key string, l *nn.Layer, in nn.Shape, i int) {
		if l.Kind != nn.Conv {
			return
		}
		qw := e.qconvW(key, l, in.C, scales[i], scales[i+1])
		groups := max(l.Groups, 1)
		ocg, per := l.OutC/groups, in.C/groups*l.KH*l.KW
		quads, obg := nquads(per), (ocg+qpwMR-1)/qpwMR
		if len(qw.pw) != groups*obg*quads*qpwMR {
			t.Fatalf("layer %s: %d panel dwords, want %d", key, len(qw.pw), groups*obg*quads*qpwMR)
		}
		for d, word := range qw.pw {
			b, q, blk := d%qpwMR, d/qpwMR%quads, d/(qpwMR*quads)
			grp, c := blk/obg, blk%obg*qpwMR+b
			for i := 0; i < 4; i++ {
				var want int8
				if tap := 4*q + i; c < ocg && tap < per {
					want = qw.wq[(grp*ocg+c)*per+tap]
				}
				if got := int8(word >> (8 * i)); got != want {
					t.Fatalf("layer %s: panel dword %d byte %d = %d, want %d", key, d, i, got, want)
				}
			}
		}
		seed := qw.seed[:l.OutC+qpwMR-1]
		for oc, got := range seed {
			var sum int32
			if oc < l.OutC {
				for _, w := range qw.wq[oc*per : (oc+1)*per] {
					sum += int32(w)
				}
			}
			if got != -128*sum {
				t.Fatalf("layer %s: seed[%d] = %d, want -128*%d", key, oc, got, sum)
			}
		}
	})
}

// walkWeightLayers calls fn for every layer of m, block-path layers
// included, with the weight key the executor files it under, the shape of
// the map it reads and the index of the top-level layer it belongs to.
func walkWeightLayers(t *testing.T, m *nn.Model, fn func(key string, l *nn.Layer, in nn.Shape, top int)) {
	t.Helper()
	shapes := m.Shapes()
	for i := range m.Layers {
		l, key := &m.Layers[i], strconv.Itoa(i)
		fn(key, l, shapes[i], i)
		for pi, path := range l.Paths {
			cur := shapes[i]
			for li := range path {
				fn(key+"/"+strconv.Itoa(pi)+"/"+strconv.Itoa(li), &path[li], cur, i)
				next, err := path[li].OutShape(cur)
				if err != nil {
					t.Fatal(err)
				}
				cur = next
			}
		}
	}
}

// hashWords is the FNV-64a hash of xs's little-endian bytes.
func hashWords[T float32 | int32 | int8](xs []T) uint64 {
	h := fnv.New64a()
	if err := binary.Write(h, binary.LittleEndian, xs); err != nil {
		panic(err)
	}
	return h.Sum64()
}
