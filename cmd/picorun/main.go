// Command picorun is the coordinator: it plans a PICO pipeline for a model
// on the given workers, executes a batch of inferences over TCP, verifies
// the outputs against a local reference execution, and reports latency and
// throughput.
//
//	picorun -workers 127.0.0.1:9101,127.0.0.1:9102 -model toy -tasks 20
//
// Worker speeds for planning are given with -speeds (effective MAC/s per
// worker, comma separated); without it the cluster is assumed homogeneous at
// 600 MHz Raspberry Pi speed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"pico/internal/cluster"
	"pico/internal/core"
	"pico/internal/nn"
	"pico/internal/runtime"
	"pico/internal/telemetry"
	"pico/internal/tensor"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("picorun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workersFlag = fs.String("workers", "", "comma-separated worker addresses (required)")
		speedsFlag  = fs.String("speeds", "", "comma-separated effective MAC/s per worker (optional)")
		modelName   = fs.String("model", "toy", "toy | fig13toy | vgg16 | yolov2 | resnet34 | inceptionv3 | mobilenetv1")
		tasks       = fs.Int("tasks", 10, "number of inferences to run")
		seed        = fs.Int64("seed", 1, "weight/input seed")
		verify      = fs.Bool("verify", true, "check outputs against a local reference execution")
		parallel    = fs.Int("parallel", 0, "CPU cores the local reference executor uses (0 = all cores, 1 = serial)")
		window      = fs.Int("window", 0, "per-stage dispatch window (1 = synchronous, 2 = double buffering; 0 = default)")
		savePlan    = fs.String("saveplan", "", "write the computed plan as JSON to this file")
		loadPlan    = fs.String("loadplan", "", "execute a previously saved plan instead of planning")
		execTimeout = fs.Duration("exec-timeout", 0, "per-tile exec deadline (0 = derive from the plan's modelled stage cost)")
		quant       = fs.Bool("quant", false, "run the int8 quantized pipeline (4x smaller stage payloads; -verify checks against local quantized execution plus float top-1 agreement)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *workersFlag == "" {
		fmt.Fprintln(stderr, "picorun: -workers is required")
		return 2
	}
	addrs := strings.Split(*workersFlag, ",")
	m, err := modelByName(*modelName)
	if err != nil {
		fmt.Fprintf(stderr, "picorun: %v\n", err)
		return 1
	}

	cl := cluster.Homogeneous(len(addrs), 600e6)
	if *speedsFlag != "" {
		parts := strings.Split(*speedsFlag, ",")
		if len(parts) != len(addrs) {
			fmt.Fprintf(stderr, "picorun: %d speeds for %d workers\n", len(parts), len(addrs))
			return 2
		}
		for i, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil || v <= 0 {
				fmt.Fprintf(stderr, "picorun: bad speed %q\n", p)
				return 2
			}
			cl.Devices[i].Capacity = v
			cl.Devices[i].Alpha = 1
		}
	}

	var plan *core.Plan
	if *loadPlan != "" {
		f, err := os.Open(*loadPlan)
		if err != nil {
			fmt.Fprintf(stderr, "picorun: %v\n", err)
			return 1
		}
		plan, err = core.LoadPlan(f)
		_ = f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "picorun: %v\n", err)
			return 1
		}
		m = plan.Model
		if plan.Cluster.Size() != len(addrs) {
			fmt.Fprintf(stderr, "picorun: plan wants %d devices, got %d workers\n", plan.Cluster.Size(), len(addrs))
			return 2
		}
		if plan.Quantized != *quant {
			fmt.Fprintf(stderr, "picorun: plan quantized=%v but -quant=%v\n", plan.Quantized, *quant)
			return 2
		}
	} else {
		var err error
		plan, err = core.PlanPipeline(m, cl, core.Options{Quantized: *quant})
		if err != nil {
			fmt.Fprintf(stderr, "picorun: plan: %v\n", err)
			return 1
		}
	}
	if *savePlan != "" {
		f, err := os.Create(*savePlan)
		if err != nil {
			fmt.Fprintf(stderr, "picorun: %v\n", err)
			return 1
		}
		if err := core.SavePlan(f, plan); err != nil {
			_ = f.Close()
			fmt.Fprintf(stderr, "picorun: %v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(stderr, "picorun: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "plan saved to %s\n", *savePlan)
	}
	fmt.Fprint(stdout, plan.Describe())

	addrMap := make(map[int]string, len(addrs))
	for i, a := range addrs {
		addrMap[i] = strings.TrimSpace(a)
	}
	// The registry collects per-task, per-stage and per-device latency and
	// kernel samples for the end-of-run percentile table and the kind split;
	// a picorun batch fits one generous window.
	telem := telemetry.New(telemetry.Options{Window: time.Hour})
	p, err := runtime.NewPipeline(plan, addrMap, runtime.PipelineOptions{
		Seed:        *seed,
		StageWindow: *window,
		ExecTimeout: *execTimeout,
		Quantized:   *quant,
		Telemetry:   telem,
	})
	if err != nil {
		fmt.Fprintf(stderr, "picorun: connect: %v\n", err)
		return 1
	}
	defer func() {
		if err := p.Close(); err != nil {
			fmt.Fprintf(stderr, "picorun: close: %v\n", err)
		}
	}()

	var ref, refQ *tensor.Executor
	if *verify {
		ref, err = tensor.NewExecutor(m, *seed, tensor.WithParallelism(*parallel))
		if err != nil {
			fmt.Fprintf(stderr, "picorun: %v\n", err)
			return 1
		}
		if *quant {
			// Distributed int8 must match local int8 exactly; the float
			// executor additionally scores top-1 agreement across precisions.
			refQ, err = tensor.NewExecutor(m, *seed, tensor.WithParallelism(*parallel), tensor.WithQuantized())
			if err != nil {
				fmt.Fprintf(stderr, "picorun: %v\n", err)
				return 1
			}
		}
	}

	inputs := make([]tensor.Tensor, *tasks)
	for i := range inputs {
		inputs[i] = tensor.RandomInput(m.Input, *seed+int64(i))
	}

	start := time.Now()
	go func() {
		for _, in := range inputs {
			if _, err := p.Submit(in); err != nil {
				fmt.Fprintf(stderr, "picorun: submit: %v\n", err)
				return
			}
		}
	}()
	completed, failed, top1Agree := 0, 0, 0
	var totalLatency time.Duration
	for res := range p.Results() {
		if res.Err != nil {
			// Worker faults degrade the run, they do not abort it: the
			// pipeline keeps serving on the survivors, so keep draining and
			// report the failures at the end.
			fmt.Fprintf(stderr, "picorun: task %d: %v\n", res.ID, res.Err)
			failed++
			if completed+failed == *tasks {
				break
			}
			continue
		}
		lat := res.Done.Sub(res.Submitted)
		totalLatency += lat
		if ref != nil {
			want, err := ref.Run(inputs[res.ID-1])
			if err != nil {
				fmt.Fprintf(stderr, "picorun: reference: %v\n", err)
				return 1
			}
			if refQ != nil {
				wantQ, err := refQ.RunQ(inputs[res.ID-1])
				if err != nil {
					fmt.Fprintf(stderr, "picorun: quant reference: %v\n", err)
					return 1
				}
				wantDeq := wantQ.Dequantize()
				if !tensor.Equal(wantDeq, res.Output) {
					fmt.Fprintf(stderr, "picorun: task %d quant output MISMATCH (max diff %g)\n",
						res.ID, tensor.MaxAbsDiff(wantDeq, res.Output))
					return 1
				}
				if argmax(want.Data) == argmax(res.Output.Data) {
					top1Agree++
				}
				tensor.RecycleQ(wantQ)
				tensor.Recycle(wantDeq)
			} else if !tensor.Equal(want, res.Output) {
				fmt.Fprintf(stderr, "picorun: task %d output MISMATCH (max diff %g)\n",
					res.ID, tensor.MaxAbsDiff(want, res.Output))
				return 1
			}
		}
		fmt.Fprintf(stdout, "task %2d done in %v\n", res.ID, lat.Round(time.Microsecond))
		completed++
		if completed+failed == *tasks {
			break
		}
	}
	elapsed := time.Since(start)
	fmt.Fprintf(stdout, "completed %d tasks in %v (%.2f/min)",
		completed, elapsed.Round(time.Millisecond),
		float64(completed)/elapsed.Minutes())
	if completed > 0 {
		fmt.Fprintf(stdout, ", mean latency %v", (totalLatency / time.Duration(completed)).Round(time.Microsecond))
	}
	if *verify && completed > 0 {
		if *quant {
			fmt.Fprintf(stdout, ", all outputs match local int8 reference, float top-1 agreement %d/%d", top1Agree, completed)
		} else {
			fmt.Fprint(stdout, ", all outputs verified against local reference")
		}
	}
	fmt.Fprintln(stdout)
	if stats := telem.Snapshot(); len(stats) > 0 && completed > 0 {
		fmt.Fprint(stdout, "latency percentiles:\n")
		fmt.Fprint(stdout, telemetry.Table(stats))
	}
	health := p.Health()
	printFaults(stdout, health, failed)
	printKindSeconds(stdout, health)
	if failed > 0 {
		fmt.Fprintf(stderr, "picorun: %d of %d tasks failed\n", failed, *tasks)
		return 1
	}
	return 0
}

// printFaults reports the pipeline's fault journal — timeouts, redials,
// devices gone down, stage re-balances — so a degraded run explains itself.
func printFaults(stdout io.Writer, h runtime.Health, failed int) {
	if len(h.FaultEvents) == 0 && failed == 0 {
		return
	}
	fmt.Fprintf(stdout, "fault events (%d", len(h.FaultEvents))
	if h.FaultsDropped > 0 {
		fmt.Fprintf(stdout, ", %d more dropped", h.FaultsDropped)
	}
	fmt.Fprintln(stdout, "):")
	for _, ev := range h.FaultEvents {
		fmt.Fprintf(stdout, "  %s\n", ev.String())
	}
	if len(h.DownDevices) > 0 {
		fmt.Fprintf(stdout, "devices down: %v\n", h.DownDevices)
	}
}

// printKindSeconds renders this run's per-layer-kind kernel seconds, which
// the workers report on every exec reply: where the real kernel time went,
// summed over devices, largest share first. Nothing is printed before a tile
// has run.
func printKindSeconds(stdout io.Writer, h runtime.Health) {
	totals := map[string]float64{}
	var sum float64
	for _, ks := range h.KindSeconds {
		for kind, sec := range ks {
			totals[kind] += sec
			sum += sec
		}
	}
	if sum == 0 {
		return
	}
	kinds := make([]string, 0, len(totals))
	for kind, sec := range totals {
		if sec > 0 {
			kinds = append(kinds, kind)
		}
	}
	sort.Slice(kinds, func(i, j int) bool { return totals[kinds[i]] > totals[kinds[j]] })
	fmt.Fprint(stdout, "compute by kind:")
	for _, kind := range kinds {
		fmt.Fprintf(stdout, " %s %.3fs (%.0f%%)", kind, totals[kind], 100*totals[kind]/sum)
	}
	fmt.Fprintln(stdout)
}

// argmax returns the index of the largest element, ties to the first.
func argmax(xs []float32) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}

func modelByName(name string) (*nn.Model, error) {
	switch name {
	case "toy":
		return nn.ToyChain("toy", 8, 3, 16, 64), nil
	case "fig13toy":
		return nn.Fig13Toy(), nil
	case "vgg16":
		return nn.VGG16(), nil
	case "yolov2":
		return nn.YOLOv2(), nil
	case "resnet34":
		return nn.ResNet34(), nil
	case "inceptionv3":
		return nn.InceptionV3(), nil
	case "mobilenetv1":
		return nn.MobileNetV1(), nil
	default:
		return nil, fmt.Errorf("unknown model %q", name)
	}
}
