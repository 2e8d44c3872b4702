package cluster

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestDeviceEffectiveSpeed(t *testing.T) {
	d := Device{ID: "d", Capacity: 2e9, Alpha: 2}
	if got := d.EffectiveSpeed(); got != 1e9 {
		t.Fatalf("EffectiveSpeed = %v", got)
	}
	// Zero alpha falls back to capacity rather than dividing by zero.
	d.Alpha = 0
	if got := d.EffectiveSpeed(); got != 2e9 {
		t.Fatalf("EffectiveSpeed with zero alpha = %v", got)
	}
	d.Alpha = 1
	if got := d.ComputeSeconds(4e9); got != 2 {
		t.Fatalf("ComputeSeconds = %v", got)
	}
}

func TestHomogenize(t *testing.T) {
	c := PaperHeterogeneous()
	h := c.Homogenize()
	if h.Size() != c.Size() {
		t.Fatalf("size changed: %d", h.Size())
	}
	want := c.AverageCapacity()
	for _, d := range h.Devices {
		if math.Abs(d.Capacity-want) > 1e-6 {
			t.Fatalf("capacity %v != avg %v", d.Capacity, want)
		}
	}
	if !isHomogeneous(h) {
		t.Fatal("Homogenize result not homogeneous")
	}
	if h.BandwidthBps != c.BandwidthBps {
		t.Fatal("bandwidth changed")
	}
	// Eq. 12: total capacity is preserved.
	if math.Abs(h.TotalCapacity()-c.TotalCapacity()) > 1e-3 {
		t.Fatalf("total capacity changed: %v vs %v", h.TotalCapacity(), c.TotalCapacity())
	}
}

func TestPaperHeterogeneousProfile(t *testing.T) {
	c := PaperHeterogeneous()
	if c.Size() != 8 {
		t.Fatalf("size = %d, want 8", c.Size())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	var n12, n8, n6 int
	for _, d := range c.Devices {
		switch d.FreqHz {
		case 1.2e9:
			n12++
		case 800e6:
			n8++
		case 600e6:
			n6++
		}
	}
	if n12 != 2 || n8 != 2 || n6 != 4 {
		t.Fatalf("frequency mix = %d/%d/%d, want 2/2/4", n12, n8, n6)
	}
	if c.BandwidthBps != WiFi50MbpsBps {
		t.Fatalf("bandwidth = %v", c.BandwidthBps)
	}
	if isHomogeneous(c) {
		t.Fatal("paper cluster must be heterogeneous")
	}
}

func TestSortedBySpeed(t *testing.T) {
	c := PaperHeterogeneous()
	order := c.SortedBySpeed()
	for i := 1; i < len(order); i++ {
		if c.Devices[order[i-1]].EffectiveSpeed() < c.Devices[order[i]].EffectiveSpeed() {
			t.Fatalf("order not descending at %d", i)
		}
	}
	// Stability: equal-speed devices keep index order.
	if order[0] != 0 || order[1] != 1 {
		t.Fatalf("expected stable order for the two 1.2GHz devices, got %v", order)
	}
}

func TestValidateErrors(t *testing.T) {
	good := Homogeneous(2, 1e9)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	one := func(d Device, bw float64) *Cluster { return &Cluster{Devices: []Device{d}, BandwidthBps: bw} }
	nan, inf := math.NaN(), math.Inf(1)
	for name, bad := range map[string]*Cluster{
		"empty cluster":  {BandwidthBps: 1},
		"zero bandwidth": one(Device{ID: "x", Capacity: 1}, 0),
		"zero capacity":  one(Device{ID: "x", Capacity: 0}, 1),
		"negative alpha": one(Device{ID: "x", Capacity: 1, Alpha: -1}, 1),
		"NaN capacity":   one(Device{ID: "x", Capacity: nan}, 1),
		"+Inf capacity":  one(Device{ID: "x", Capacity: inf}, 1),
		"-Inf capacity":  one(Device{ID: "x", Capacity: -inf}, 1),
		"NaN alpha":      one(Device{ID: "x", Capacity: 1, Alpha: nan}, 1),
		"+Inf alpha":     one(Device{ID: "x", Capacity: 1, Alpha: inf}, 1),
		"NaN bandwidth":  one(Device{ID: "x", Capacity: 1}, nan),
		"+Inf bandwidth": one(Device{ID: "x", Capacity: 1}, inf),
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s validated", name)
		}
	}
}

func TestFitAlphaExact(t *testing.T) {
	// Synthetic device: capacity 1 GMAC/s, true alpha 1.5.
	const cap0, alpha = 1e9, 1.5
	var samples []Sample
	for _, flops := range []float64{1e8, 5e8, 2e9, 7e9} {
		samples = append(samples, Sample{Flops: flops, Seconds: alpha * flops / cap0})
	}
	got, err := FitAlpha(cap0, samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-alpha) > 1e-9 {
		t.Fatalf("alpha = %v, want %v", got, alpha)
	}
	d, err := Calibrate(Device{ID: "d", Capacity: cap0, Alpha: 1}, samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.EffectiveSpeed()-cap0/alpha) > 1 {
		t.Fatalf("calibrated speed = %v", d.EffectiveSpeed())
	}
}

func TestFitAlphaNoisyProperty(t *testing.T) {
	// With symmetric multiplicative noise the fit must stay within 20% of
	// the true alpha for any plausible parameters.
	f := func(a8, c8 uint8) bool {
		alpha := 0.5 + float64(a8%40)/20 // 0.5 .. 2.45
		capacity := 1e8 * (1 + float64(c8%50))
		noise := []float64{0.9, 1.1, 0.95, 1.05, 1.0}
		var samples []Sample
		for i, nz := range noise {
			flops := 1e8 * float64(i+1)
			samples = append(samples, Sample{Flops: flops, Seconds: alpha * flops / capacity * nz})
		}
		got, err := FitAlpha(capacity, samples)
		if err != nil {
			return false
		}
		return got > alpha*0.8 && got < alpha*1.2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFitAlphaErrors(t *testing.T) {
	if _, err := FitAlpha(0, []Sample{{1, 1}}); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := FitAlpha(1e9, nil); err == nil {
		t.Fatal("no samples accepted")
	}
	if _, err := FitAlpha(1e9, []Sample{{0, 1}}); err == nil {
		t.Fatal("zero-flops samples accepted")
	}
	if _, err := FitAlpha(1e9, []Sample{{1e9, -2}}); err == nil {
		t.Fatal("negative-time samples accepted")
	}
}

func TestRPi4BCapacityScalesWithFrequency(t *testing.T) {
	lo := RPi4B("lo", 600e6)
	hi := RPi4B("hi", 1.2e9)
	if math.Abs(hi.Capacity/lo.Capacity-2) > 1e-9 {
		t.Fatalf("capacity ratio = %v, want 2", hi.Capacity/lo.Capacity)
	}
}

// isHomogeneous reports whether all of c's devices have the same effective
// speed within a 1e-9 relative tolerance.
func isHomogeneous(c *Cluster) bool {
	if len(c.Devices) <= 1 {
		return true
	}
	first := c.Devices[0].EffectiveSpeed()
	for _, d := range c.Devices[1:] {
		s := d.EffectiveSpeed()
		diff := s - first
		if diff < 0 {
			diff = -diff
		}
		if diff > 1e-9*first {
			return false
		}
	}
	return true
}

// FuzzParseSpeeds feeds the -speeds parsing of picorun and picoserve
// arbitrary strings: a list it accepts has one value per comma-separated
// field, and WithSpeeds builds a cluster from it exactly when every value is
// a positive, finite MAC/s, with those capacities at alpha 1.
func FuzzParseSpeeds(f *testing.F) {
	for _, s := range []string{
		"", "1e9,2e9", " 1.2e9 , 6e8", "1", "1e9",
		"fast,slow", "bad,worse", "NaN,1e9", "1e9,+Inf", "-Inf,1e9", "0,1e9", "-1,1e9", "1e9,,2e9",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		speeds, err := ParseSpeeds(s)
		if err != nil {
			return
		}
		if fields := strings.Count(s, ",") + 1; s == "" && speeds != nil || s != "" && len(speeds) != fields {
			t.Fatalf("ParseSpeeds(%q) = %v for %d fields", s, speeds, fields)
		}
		if speeds == nil {
			return
		}
		usable := true
		for _, v := range speeds {
			usable = usable && v > 0 && !math.IsInf(v, 1)
		}
		cl, err := WithSpeeds(len(speeds), speeds)
		if (err == nil) != usable {
			t.Fatalf("WithSpeeds(%v): error %v, want one exactly when a speed is unusable", speeds, err)
		}
		if err == nil {
			for i, d := range cl.Devices {
				if d.Capacity != speeds[i] || d.Alpha != 1 {
					t.Fatalf("device %d = %+v, want capacity %v at alpha 1", i, d, speeds[i])
				}
			}
		}
		if _, err := WithSpeeds(len(speeds)+1, speeds); err == nil {
			t.Fatalf("WithSpeeds accepted %d speeds for %d devices", len(speeds), len(speeds)+1)
		}
	})
}
