package main

import (
	"fmt"
	"time"

	"pico/internal/cluster"
	"pico/internal/nn"
)

// workload is one traffic mix against one served model. The names are fixed:
// later issues cite them. BENCHMARK.json and README.md record why each exists.
type workload struct {
	name  string
	model func() *nn.Model
	quant bool
	// workers is the loopback cluster size; speeds, when set, throttles
	// worker i to speeds[i] MAC/s (runtime.WithEmulatedSpeed) and is also
	// the planner's profile, so the cost model is accurate by construction.
	workers int
	speeds  []float64
	// rate > 0 selects the open loop: arrivals at rate req/s, each request
	// timed from its due time. Zero is the closed loop: nproc clients, one
	// keep-alive connection each.
	rate float64
	// paced spaces the open loop's arrivals evenly (a camera's frame rate)
	// instead of drawing Poisson gaps.
	paced bool
	// limit is the latency a response must meet to count as good.
	limit time.Duration
}

// Planner profiles. Unthrottled workloads plan against an upper bound of what
// one loopback core can do (AVX2 issue peak, memory-speed "network"), so the
// gateway's M/D/1 admission predicate can never declare the system unstable
// before the hardware is; any 429 there is a failure of the system under
// test, not of the profile.
const (
	upperBoundMACs = 4.0e10
	upperBoundBps  = 1.0e10
	heteroBps      = 1.0e9
)

func (w *workload) profile() *cluster.Cluster {
	c := &cluster.Cluster{BandwidthBps: upperBoundBps}
	if w.speeds != nil {
		c.BandwidthBps = heteroBps
	}
	for i := 0; i < w.workers; i++ {
		d := cluster.Device{ID: fmt.Sprintf("w-%d", i), Capacity: upperBoundMACs, Alpha: 1}
		if w.speeds != nil {
			d.Capacity = w.speeds[i]
		}
		c.Devices = append(c.Devices, d)
	}
	return c
}

var workloads = []*workload{
	// The issue sized the two MobileNet workloads as closed loops of nproc
	// clients. That keeps both vCPUs of the reference sandbox busy with
	// throughput-bound SIMD kernels, and those follow whatever the host's
	// other tenants do to the cores' shared execution ports and caches: the
	// same code reads 50 or 65 ms for a minute at a time (a scalar
	// dependency-chain probe beside it does not move), and ten-seed spreads
	// of every timing metric were 14-26 %. One request in flight at a time
	// roughly halves that, and a fixed frame rate (an IoT camera's) instead
	// of a closed loop keeps goodput_rps and the offered load independent of
	// the host's mood. 12 frames/s leaves 83 ms per ~55 ms request, so
	// requests do not queue behind each other; Poisson gaps at this rate made
	// p95 a measure of the seed's burstiness (spread 29-39 %).
	// Saturated throughput is still reported per layer, by the traced run's
	// direct pipeline (runtime.tasks_per_s).
	{
		name:    "mnv1_f32",
		model:   nn.MobileNetV1,
		workers: 3,
		rate:    12,
		paced:   true,
		limit:   250 * time.Millisecond,
	},
	{
		name:    "mnv1_int8",
		model:   nn.MobileNetV1,
		quant:   true,
		workers: 3,
		rate:    12,
		paced:   true,
		limit:   250 * time.Millisecond,
	},
	{
		name:    "tiny_overhead",
		model:   func() *nn.Model { return nn.ToyChain("tiny", 4, 2, 8, 32) },
		workers: 3,
		limit:   25 * time.Millisecond,
	},
	// Twice the issue's emulated speeds and 30 req/s instead of 17: the plan
	// is the same (same strips, same stage split) and padding still dominates
	// real compute, but a 25 s window holds 750 requests instead of 425.
	{
		name:    "toy_hetero_open",
		model:   func() *nn.Model { return nn.ToyChain("toy", 8, 3, 16, 64) },
		workers: 4,
		speeds:  []float64{8e8, 6e8, 4e8, 2e8},
		rate:    30,
		limit:   500 * time.Millisecond,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metric describes one reported number. bound (end-to-end only) is the share
// of the parent's median by which it may worsen before a change is rejected;
// it is also the run-to-run agreement bound -repeat checks.
type metric struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd is measured with tracing off. Only what repeats on the reference
// sandbox, a shared 2-vCPU VM, carries a bound; README.md has the numbers.
//   - fail_share is absent: the contract wants metrics that are never 0, and
//     a healthy run fails nothing, so failures travel in the result's
//     attempted/failed counts and lower goodput_rps.
//   - The latency metric is the floor, p10, not the median or p95: a
//     CPU-bound request is 25 % slower while the host's other tenants are
//     busy on its core, the median and p95 report what share of the window
//     that was (ten-seed spreads 12-25 % and 12-107 %), p10 does not (3-14 %).
//   - cpu_ms_per_req spread 9-23 %, most on the mostly idle workloads.
//
// The median, p95 and the CPU cost are reported unbounded by the traced run
// (gen.latency_p50_ms, gen.latency_p95_ms, gen.cpu_ms_per_req).
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p10_ms", "ms", "lower", 0.25},
	{"goodput_rps", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer comes from the traced run. Ratios of prediction over measurement
// are "higher" because every model in this repo is optimistic (ratio < 1).
var perLayer = []metric{
	{"serve.overhead_p50_ms", "ms", "lower", 0},
	{"serve.mean_batch", "count", "higher", 0},
	{"serve.queue_peak", "count", "lower", 0},
	{"serve.shed_share", "ratio", "lower", 0},
	{"serve.ledger_ok", "count", "higher", 0},
	{"serve.metrics_scrape_ms", "ms", "lower", 0},
	{"serve.drain_s", "s", "lower", 0},
	{"queueing.decide_ns", "ns", "lower", 0},
	{"queueing.rate_est_over_offered", "ratio", "higher", 0},
	{"queueing.theorem2_pred_over_meas", "ratio", "higher", 0},
	{"runtime.session_open_ms", "ms", "lower", 0},
	{"runtime.tasks_per_s", "1/s", "higher", 0},
	{"runtime.task_p50_ms", "ms", "lower", 0},
	{"runtime.stage_p50_ms.bottleneck", "ms", "lower", 0},
	{"runtime.stage_sum_p50_ms", "ms", "lower", 0},
	{"runtime.interstage_wait_p50_ms", "ms", "lower", 0},
	{"runtime.stage_overhead_ms", "ms", "lower", 0},
	{"runtime.worker_compute_ms_per_task", "ms", "lower", 0},
	{"runtime.faults_retries", "count", "lower", 0},
	{"wire.encode_gbps", "GB/s", "higher", 0},
	{"wire.decode_gbps", "GB/s", "higher", 0},
	{"wire.qencode_gbps", "GB/s", "higher", 0},
	{"wire.qdecode_gbps", "GB/s", "higher", 0},
	{"wire.frame_rtt_us", "us", "lower", 0},
	{"wire.bytes_per_task", "B", "lower", 0},
	{"tensor.forward_ms", "ms", "lower", 0},
	{"tensor.gmacs_per_s", "GMAC/s", "higher", 0},
	{"tensor.kind_ms.conv", "ms", "lower", 0},
	{"tensor.kind_ms.pointwise", "ms", "lower", 0},
	{"tensor.kind_ms.depthwise", "ms", "lower", 0},
	{"tensor.kind_ms.pool", "ms", "lower", 0},
	{"tensor.kind_ms.fc", "ms", "lower", 0},
	{"tensor.segment_ms.bottleneck", "ms", "lower", 0},
	{"tensor.alloc_kb_per_forward", "KB", "lower", 0},
	{"partition.split_stitch_us", "us", "lower", 0},
	{"partition.redundant_mac_share", "ratio", "lower", 0},
	{"core.plan_ms", "ms", "lower", 0},
	{"core.period_pred_over_meas", "ratio", "higher", 0},
	{"core.latency_pred_over_meas", "ratio", "higher", 0},
	{"core.stage_imbalance", "ratio", "lower", 0},
	{"telemetry.record_ns", "ns", "lower", 0},
	{"telemetry.snapshot_us", "us", "lower", 0},
	{"simulate.latency_pred_over_meas", "ratio", "higher", 0},
	{"gen.sent", "count", "higher", 0},
	{"gen.good", "count", "higher", 0},
	{"gen.fail_share", "ratio", "lower", 0},
	{"gen.latency_p50_ms", "ms", "lower", 0},
	{"gen.latency_p95_ms", "ms", "lower", 0},
	{"gen.cpu_ms_per_req", "ms", "lower", 0},
	{"gen.late_p95_ms", "ms", "lower", 0},
	{"gen.inflight_peak", "count", "lower", 0},
	{"bench.trace_overhead_share", "ratio", "lower", 0},
	{"bench.trace_accounted_share", "ratio", "higher", 0},
}
