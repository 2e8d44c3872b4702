// Command picoserve is the serving gateway: a long-lived HTTP front door
// that plans pipelines over the worker cluster, pools them per
// (model, plan, quant) session, micro-batches concurrent requests, and
// sheds load when the M/D/1 admission predicate says the latency bound
// would be breached.
//
//	picoserve -addr :8080 -workers 127.0.0.1:9101,127.0.0.1:9102 -models toy
//	picoserve -addr :8080 -local 3 -models toy,vgg16      # in-process workers
//
// Inference is a POST of the raw little-endian float32 CHW input:
//
//	curl -sS --data-binary @input.f32 \
//	  'http://localhost:8080/infer?model=toy&plan=pico' -o output.f32
//
// plan= picks the session's scheme: pico (the default, the PICO pipeline),
// fused (the one-stage scheme: optimal fused segments, each over the whole
// cluster, an unsplittable tail on one device) or apico, which plans both and
// swaps the live pipeline to whichever Theorem 2 favours at the arrival rate
// it observes (each swap is in /healthz's fault journal as plan-swapped).
//
// GET /healthz reports per-session pipeline health, GET /stats the gateway
// counters, GET /metrics the latency percentiles over a fixed 60 s window
// (p50/p95/p99 per model, stage, device and kind) in plaintext exposition
// format. -slo-p99/-slo-skew arm the SLO watcher, which checks every 5 s:
// breaches trigger a measured re-balance of the offending session's
// pipeline.
//
// The flags are the deployment (-addr, -workers or -local, -speeds, -models,
// -seed, -drain) and the service-level policy (-max-queue, -latency-bound,
// -slo-p99, -slo-skew). The rest of the gateway is fixed: a 2 ms, 16-request
// micro-batch window and the EWMA arrival estimator at β = 0.5 over 10 s
// windows.
// SIGINT/SIGTERM drains gracefully: in-flight requests finish, pipelines
// flush, workers disconnect.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pico/internal/cluster"
	"pico/internal/nn"
	"pico/internal/runtime"
	"pico/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run starts the gateway; when ready is non-nil the gateway is sent on it
// once listening, so tests can drive and drain it programmatically.
func run(args []string, stdout, stderr io.Writer, ready chan<- *serve.Gateway) int {
	fs := flag.NewFlagSet("picoserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:8080", "HTTP listen address")
		workersFlag  = fs.String("workers", "", "comma-separated worker addresses")
		speedsFlag   = fs.String("speeds", "", "comma-separated effective MAC/s per worker (optional)")
		local        = fs.Int("local", 0, "start N in-process loopback workers instead of dialing -workers")
		modelsFlag   = fs.String("models", "toy", "comma-separated models to serve: "+strings.Join(nn.Names(), " | "))
		seed         = fs.Int64("seed", 1, "weight seed shared with the workers")
		maxQueue     = fs.Int("max-queue", 64, "bound on admitted-but-unanswered requests")
		latencyBound = fs.Float64("latency-bound", 30, "admission ceiling on the predicted wait, seconds")
		sloP99       = fs.Float64("slo-p99", 0, "SLO watcher bound on windowed e2e p99, seconds (0 disables)")
		sloSkew      = fs.Float64("slo-skew", 0, "SLO watcher bound on per-device exec p99 skew factor (0 disables)")
		drain        = fs.Duration("drain", 30*time.Second, "graceful shutdown budget for in-flight work")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	models := make(map[string]*nn.Model)
	for _, name := range strings.Split(*modelsFlag, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		m, err := nn.ByName(name)
		if err != nil {
			fmt.Fprintf(stderr, "picoserve: %v\n", err)
			return 2
		}
		models[name] = m
	}
	if len(models) == 0 {
		fmt.Fprintln(stderr, "picoserve: -models is required")
		return 2
	}

	speeds, err := cluster.ParseSpeeds(*speedsFlag)
	if err != nil {
		fmt.Fprintf(stderr, "picoserve: %v\n", err)
		return 2
	}
	if *local > 0 && *workersFlag != "" {
		fmt.Fprintln(stderr, "picoserve: -local and -workers are mutually exclusive")
		return 2
	}
	if *local <= 0 && *workersFlag == "" {
		fmt.Fprintln(stderr, "picoserve: -workers or -local is required")
		return 2
	}
	var addrs map[int]string
	n := *local
	if n <= 0 {
		list := strings.Split(*workersFlag, ",")
		n = len(list)
		addrs = make(map[int]string, n)
		for i, a := range list {
			addrs[i] = strings.TrimSpace(a)
		}
	}
	cl, err := cluster.WithSpeeds(n, speeds)
	if err != nil {
		fmt.Fprintf(stderr, "picoserve: %v\n", err)
		return 2
	}

	if *local > 0 {
		lc, err := runtime.StartLocalCluster(n, speeds)
		if err != nil {
			fmt.Fprintf(stderr, "picoserve: local cluster: %v\n", err)
			return 1
		}
		defer func() {
			if err := lc.Close(); err != nil {
				fmt.Fprintf(stderr, "picoserve: local cluster close: %v\n", err)
			}
		}()
		addrs = lc.Addrs
	}

	g, err := serve.New(serve.Config{
		Cluster:       cl,
		Addrs:         addrs,
		Models:        models,
		Seed:          *seed,
		MaxQueue:      *maxQueue,
		LatencyBound:  *latencyBound,
		SLOP99Bound:   *sloP99,
		SLOSkewFactor: *sloSkew,
	})
	if err != nil {
		fmt.Fprintf(stderr, "picoserve: %v\n", err)
		return 1
	}
	bound, err := g.Listen(*addr)
	if err != nil {
		fmt.Fprintf(stderr, "picoserve: %v\n", err)
		return 1
	}
	names := make([]string, 0, len(models))
	for name := range models {
		names = append(names, name)
	}
	fmt.Fprintf(stdout, "picoserve listening on %s, serving %s over %d workers\n",
		bound, strings.Join(names, ","), n)
	if ready != nil {
		ready <- g
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	done := make(chan error, 1)
	go func() { done <- g.Serve() }()
	select {
	case sig := <-sigs:
		fmt.Fprintf(stdout, "picoserve: %v, draining (budget %v)\n", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		err := g.Shutdown(ctx)
		cancel()
		if err != nil {
			fmt.Fprintf(stderr, "picoserve: drain: %v\n", err)
		}
		if serr := <-done; serr != nil {
			fmt.Fprintf(stderr, "picoserve: %v\n", serr)
			return 1
		}
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return 1
		}
	case err := <-done:
		// Serve returned on its own: an error, or a programmatic Shutdown
		// (tests) which already drained the session pool.
		if err != nil {
			fmt.Fprintf(stderr, "picoserve: %v\n", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, "picoserve: drained")
	return 0
}
