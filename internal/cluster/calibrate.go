package cluster

import "fmt"

// Sample is one calibration measurement: a workload of Flops
// multiply-accumulates that took Seconds of wall-clock time on the device.
type Sample struct {
	Flops   float64
	Seconds float64
}

// FitAlpha computes the α_k coefficient of Eq. (5) for a device of known
// capacity by least squares through the origin over measured samples:
// minimizing Σ (t_i − α·θ_i/ϑ)². The paper obtains α_k "by a regression
// model"; this is that regression.
func FitAlpha(capacity float64, samples []Sample) (float64, error) {
	if capacity <= 0 {
		return 0, fmt.Errorf("cluster: non-positive capacity %v", capacity)
	}
	if len(samples) == 0 {
		return 0, fmt.Errorf("cluster: no calibration samples")
	}
	var num, den float64
	for _, s := range samples {
		x := s.Flops / capacity
		num += x * s.Seconds
		den += x * x
	}
	if den == 0 {
		return 0, fmt.Errorf("cluster: calibration samples have zero workload")
	}
	alpha := num / den
	if alpha <= 0 {
		return 0, fmt.Errorf("cluster: calibration produced non-positive alpha %v", alpha)
	}
	return alpha, nil
}

// Calibrate returns a copy of the device with Alpha fitted from samples.
func Calibrate(d Device, samples []Sample) (Device, error) {
	alpha, err := FitAlpha(d.Capacity, samples)
	if err != nil {
		return Device{}, err
	}
	d.Alpha = alpha
	return d, nil
}
