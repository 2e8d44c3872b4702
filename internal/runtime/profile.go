package runtime

import (
	"fmt"

	"pico/internal/cluster"
	"pico/internal/nn"
	"pico/internal/partition"
	"pico/internal/tensor"
	"pico/internal/wire"
)

// MeasureWorker profiles a live worker: it executes progressively larger
// slices of the probe model remotely and returns (FLOPs, seconds) samples
// from the worker's own compute-time reports — the measurements the paper's
// "regression model" for α_k consumes (Eq. 5). rounds controls how many
// samples per slice size are taken (the minimum of each batch is kept, the
// standard trick against scheduler noise).
func MeasureWorker(addr string, probe *nn.Model, seed int64, rounds int) ([]cluster.Sample, error) {
	if err := probe.Validate(); err != nil {
		return nil, err
	}
	if rounds < 1 {
		rounds = 1
	}
	wc, err := dialWorker(addr)
	if err != nil {
		return nil, err
	}
	defer func() { _ = wc.close() }()
	if err := wc.loadModel(wire.SpecFromModel(probe), seed, nil); err != nil {
		return nil, err
	}
	exec, err := tensor.NewExecutor(probe, seed)
	if err != nil {
		return nil, err
	}
	input := tensor.RandomInput(probe.Input, seed)
	outH := probe.Output().H
	// Slices of increasing height: quarter, half, full output.
	fractions := []int{4, 2, 1}
	samples := make([]cluster.Sample, 0, len(fractions))
	for _, frac := range fractions {
		rows := outH / frac
		if rows < 1 {
			rows = 1
		}
		part := partition.Range{Lo: 0, Hi: rows}
		inR := exec.InputRange(0, probe.NumLayers(), part)
		tile := tensor.MapOf(input.SliceRows(inR.Lo, inR.Hi))
		flops := float64(exec.TileFLOPs(0, probe.NumLayers(), exec.Strip(probe.NumLayers(), part)))
		best := 0.0
		for r := 0; r < rounds; r++ {
			_, comp, err := wc.exec(wire.ExecHeader{
				TaskID: int64(r),
				From:   0, To: probe.NumLayers(),
				OutLo: part.Lo, OutHi: part.Hi,
				InLo:      inR.Lo,
				ModelName: probe.Name,
				Seed:      seed,
			}, tile)
			if err != nil {
				return nil, fmt.Errorf("runtime: probe exec: %w", err)
			}
			if best == 0 || comp < best {
				best = comp
			}
		}
		if best <= 0 {
			return nil, fmt.Errorf("runtime: worker reported non-positive compute time")
		}
		samples = append(samples, cluster.Sample{Flops: flops, Seconds: best})
	}
	return samples, nil
}

// DiscoverCluster profiles every worker and assembles a calibrated Cluster:
// each device's effective speed is fitted from live measurements
// (cluster.FitSpeed), giving the planner real capacities instead of nominal
// frequency-derived ones. bandwidthBps is the WLAN estimate to plan with.
func DiscoverCluster(addrs []string, probe *nn.Model, seed int64, rounds int, bandwidthBps float64) (*cluster.Cluster, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("runtime: no workers to discover")
	}
	cl := &cluster.Cluster{BandwidthBps: bandwidthBps}
	for i, addr := range addrs {
		samples, err := MeasureWorker(addr, probe, seed, rounds)
		if err != nil {
			return nil, fmt.Errorf("runtime: measure %s: %w", addr, err)
		}
		speed, err := cluster.FitSpeed(samples)
		if err != nil {
			return nil, fmt.Errorf("runtime: fit %s: %w", addr, err)
		}
		cl.Devices = append(cl.Devices, cluster.Device{
			ID:       fmt.Sprintf("worker-%d@%s", i, addr),
			Capacity: speed,
			Alpha:    1,
		})
	}
	if err := cl.Validate(); err != nil {
		return nil, err
	}
	return cl, nil
}
