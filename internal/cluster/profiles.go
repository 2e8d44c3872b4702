package cluster

import (
	"fmt"
	"strconv"
	"strings"
)

// Constants describing the paper's testbed (§V-A): Raspberry Pi 4B boards
// pinned to one ARM core, behind a 50 Mbps WiFi access point.
const (
	// WiFi50MbpsBps is the access-point bandwidth in bytes per second.
	WiFi50MbpsBps = 50e6 / 8

	// MACsPerCycle is the sustained multiply-accumulates per CPU cycle a
	// single Cortex-A72 core achieves on NNPACK-accelerated convolutions.
	// NEON issues a 4-wide fused multiply-add per cycle at peak; ~50%
	// efficiency on real conv loops gives 2 MAC/cycle, which puts a
	// single-core 600 MHz VGG-16 inference at ~13 s — consistent with
	// single-core Raspberry Pi measurements.
	MACsPerCycle = 2.0
)

// RPi4B returns a Raspberry Pi 4B device profile pinned to one core at the
// given CPU frequency.
func RPi4B(id string, freqHz float64) Device {
	return Device{
		ID:       id,
		Capacity: freqHz * MACsPerCycle,
		Alpha:    1,
		FreqHz:   freqHz,
	}
}

// Homogeneous builds a cluster of n identical Raspberry Pi 4B devices at the
// given frequency behind the 50 Mbps access point — the configuration of the
// paper's capacity experiments (Figs. 8, 9, 12).
func Homogeneous(n int, freqHz float64) *Cluster {
	devices := make([]Device, n)
	for i := range devices {
		devices[i] = RPi4B(fmt.Sprintf("pi-%d", i), freqHz)
	}
	return &Cluster{Devices: devices, BandwidthBps: WiFi50MbpsBps}
}

// ByName builds the cluster a command line names: "homogeneous", n devices
// at freqHz, or "paper", PaperHeterogeneous; either behind bandwidthBps.
func ByName(kind string, n int, freqHz, bandwidthBps float64) (*Cluster, error) {
	var c *Cluster
	switch kind {
	case "homogeneous":
		c = Homogeneous(n, freqHz)
	case "paper":
		c = PaperHeterogeneous()
	default:
		return nil, fmt.Errorf("cluster: unknown cluster %q", kind)
	}
	c.BandwidthBps = bandwidthBps
	return c, nil
}

// ParseSpeeds parses a comma-separated list of effective MAC/s, one per
// device; the empty string gives nil. Whether a value is a usable capacity
// is for Validate to say, through WithSpeeds.
func ParseSpeeds(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	fields := strings.Split(s, ",")
	speeds := make([]float64, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("cluster: bad speed %q", f)
		}
		speeds[i] = v
	}
	return speeds, nil
}

// WithSpeeds builds n devices at 600 MHz and, when speeds is not nil, gives
// device i capacity speeds[i] at alpha 1. speeds must then hold n values and
// the cluster must validate.
func WithSpeeds(n int, speeds []float64) (*Cluster, error) {
	c := Homogeneous(n, 600e6)
	if speeds == nil {
		return c, nil
	}
	if len(speeds) != n {
		return nil, fmt.Errorf("cluster: %d speeds for %d devices", len(speeds), n)
	}
	for i, v := range speeds {
		c.Devices[i].Capacity, c.Devices[i].Alpha = v, 1
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// PaperHeterogeneous builds the 8-device heterogeneous cluster of the
// paper's Table I: 2x 1.2 GHz, 2x 800 MHz and 4x 600 MHz Raspberry Pi 4Bs.
func PaperHeterogeneous() *Cluster {
	freqs := []float64{1.2e9, 1.2e9, 800e6, 800e6, 600e6, 600e6, 600e6, 600e6}
	devices := make([]Device, len(freqs))
	for i, f := range freqs {
		devices[i] = RPi4B(fmt.Sprintf("pi-%d-%dMHz", i, int(f/1e6)), f)
	}
	return &Cluster{Devices: devices, BandwidthBps: WiFi50MbpsBps}
}

// Fig13Heterogeneous builds the 6-device heterogeneous cluster used by the
// paper's PICO-vs-BFS comparison (Fig. 13): a spread of frequencies on the
// same access point.
func Fig13Heterogeneous() *Cluster {
	freqs := []float64{1.2e9, 1.0e9, 800e6, 800e6, 600e6, 600e6}
	devices := make([]Device, len(freqs))
	for i, f := range freqs {
		devices[i] = RPi4B(fmt.Sprintf("pi-%d-%dMHz", i, int(f/1e6)), f)
	}
	return &Cluster{Devices: devices, BandwidthBps: WiFi50MbpsBps}
}
