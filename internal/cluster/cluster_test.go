package cluster

import (
	"math"
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
	if !h.IsHomogeneous() {
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
	if c.IsHomogeneous() {
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
	bad := &Cluster{BandwidthBps: 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("empty cluster validated")
	}
	bad = &Cluster{Devices: []Device{{ID: "x", Capacity: 1}}, BandwidthBps: 0}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero bandwidth validated")
	}
	bad = &Cluster{Devices: []Device{{ID: "x", Capacity: 0}}, BandwidthBps: 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero capacity validated")
	}
	bad = &Cluster{Devices: []Device{{ID: "x", Capacity: 1, Alpha: -1}}, BandwidthBps: 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative alpha validated")
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
