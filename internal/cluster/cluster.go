// Package cluster describes heterogeneous IoT edge clusters: per-device
// computing capacity ϑ(d_k), the regression coefficient α_k of the paper's
// compute-time model (Eq. 5), and the shared WLAN bandwidth b (the paper
// assumes one bandwidth for all devices under the same access point, §III-A).
//
// It also provides profiles for the paper's testbed — Raspberry Pi 4B boards
// pinned to one CPU core at configurable frequencies behind a 50 Mbps WiFi
// access point — and the least-squares calibration that produces α_k from
// measured (FLOPs, seconds) samples.
package cluster

import (
	"fmt"
	"math"
	"sort"
)

// Device is one edge computing device.
type Device struct {
	// ID identifies the device ("pi-0", ...).
	ID string
	// Capacity is ϑ(d_k): sustained multiply-accumulates per second.
	Capacity float64
	// Alpha is the α_k regression coefficient of Eq. (5); compute time is
	// Alpha * FLOPs / Capacity. A freshly profiled device has Alpha 1.
	Alpha float64
	// FreqHz records the CPU frequency the profile was derived from
	// (informational; Capacity is what the planner uses).
	FreqHz float64
}

// EffectiveSpeed returns Capacity/Alpha — the FLOPs per wall-clock second
// the device actually sustains, the weight used for strip balancing.
func (d Device) EffectiveSpeed() float64 {
	if d.Alpha <= 0 {
		return d.Capacity
	}
	return d.Capacity / d.Alpha
}

// ComputeSeconds returns the modelled execution time of the given MAC count
// on this device (Eq. 5).
func (d Device) ComputeSeconds(flops float64) float64 {
	speed := d.EffectiveSpeed()
	if speed <= 0 {
		return 0
	}
	return flops / speed
}

func (d Device) String() string {
	return fmt.Sprintf("%s(%.2f GMAC/s)", d.ID, d.Capacity/1e9)
}

// Cluster is a set of devices behind one shared wireless access point.
type Cluster struct {
	// Devices are the cluster members.
	Devices []Device
	// BandwidthBps is b: the point-to-point bandwidth in bytes per second
	// between any two devices (the paper assumes it uniform under one
	// WLAN).
	BandwidthBps float64
}

// Size returns the number of devices.
func (c *Cluster) Size() int { return len(c.Devices) }

// TotalCapacity returns the sum of device capacities.
func (c *Cluster) TotalCapacity() float64 {
	var sum float64
	for _, d := range c.Devices {
		sum += d.Capacity
	}
	return sum
}

// AverageCapacity returns the mean device capacity — the homogenised
// cluster D' of the paper's Eq. (12).
func (c *Cluster) AverageCapacity() float64 {
	if len(c.Devices) == 0 {
		return 0
	}
	return c.TotalCapacity() / float64(len(c.Devices))
}

// AverageEffectiveSpeed returns the mean of Capacity/Alpha over devices.
func (c *Cluster) AverageEffectiveSpeed() float64 {
	if len(c.Devices) == 0 {
		return 0
	}
	var sum float64
	for _, d := range c.Devices {
		sum += d.EffectiveSpeed()
	}
	return sum / float64(len(c.Devices))
}

// Homogenize returns the cluster D' of Eq. (12): same device count and
// bandwidth, every capacity replaced by the average.
func (c *Cluster) Homogenize() *Cluster {
	avg := c.AverageCapacity()
	avgSpeed := c.AverageEffectiveSpeed()
	alpha := 1.0
	if avgSpeed > 0 {
		alpha = avg / avgSpeed
	}
	devices := make([]Device, len(c.Devices))
	for i := range devices {
		devices[i] = Device{
			ID:       fmt.Sprintf("avg-%d", i),
			Capacity: avg,
			Alpha:    alpha,
		}
	}
	return &Cluster{Devices: devices, BandwidthBps: c.BandwidthBps}
}

// SortedBySpeed returns device indices ordered by descending effective
// speed, the iteration order of Algorithm 2.
func (c *Cluster) SortedBySpeed() []int {
	order := make([]int, len(c.Devices))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return c.Devices[order[a]].EffectiveSpeed() > c.Devices[order[b]].EffectiveSpeed()
	})
	return order
}

// Validate checks the cluster is usable by the planner: bandwidth and
// capacities positive and finite, alphas finite and non-negative.
func (c *Cluster) Validate() error {
	if len(c.Devices) == 0 {
		return fmt.Errorf("cluster: no devices")
	}
	if !(c.BandwidthBps > 0) || math.IsInf(c.BandwidthBps, 1) {
		return fmt.Errorf("cluster: bad bandwidth %v", c.BandwidthBps)
	}
	for i, d := range c.Devices {
		if !(d.Capacity > 0) || math.IsInf(d.Capacity, 1) {
			return fmt.Errorf("cluster: device %d (%s) has bad capacity %v", i, d.ID, d.Capacity)
		}
		if !(d.Alpha >= 0) || math.IsInf(d.Alpha, 1) {
			return fmt.Errorf("cluster: device %d (%s) has bad alpha %v", i, d.ID, d.Alpha)
		}
	}
	return nil
}
