// Command piconode runs one edge worker daemon: it listens for a
// coordinator, loads model descriptions, and executes segment tiles. Start
// one per device (or several on one host with -speed throttles to emulate a
// heterogeneous rack), then drive them with picorun.
//
//	piconode -addr :9101 -id pi-0
//	piconode -addr :9102 -id pi-1 -speed 1.2e9   # emulate 600 MHz x 2 MAC/cycle
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pico/internal/runtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run starts the worker; when ready is non-nil, the listen address is sent
// on it once serving (used by tests to coordinate and to shut down via
// Close through the returned channel semantics).
func run(args []string, stdout, stderr io.Writer, ready chan<- *runtime.Worker) int {
	fs := flag.NewFlagSet("piconode", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:9101", "listen address")
		id       = fs.String("id", "piconode", "worker identifier")
		speed    = fs.Float64("speed", 0, "emulated effective MAC/s (0 = run at native speed)")
		parallel = fs.Int("parallel", 0, "CPU cores per kernel (0 = all cores, 1 = serial); results are bit-identical at any setting")
		quiet    = fs.Bool("quiet", false, "suppress per-request logging")
		grace    = fs.Duration("grace", 15*time.Second, "graceful shutdown budget: how long to let in-flight connections finish before severing them")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !(*speed >= 0) || math.IsInf(*speed, 1) {
		fmt.Fprintf(stderr, "piconode: bad -speed %v: want a finite MAC/s, or 0 for native\n", *speed)
		return 2
	}

	opts := []runtime.WorkerOption{runtime.WithParallelism(*parallel)}
	if *speed > 0 {
		opts = append(opts, runtime.WithEmulatedSpeed(*speed))
	}
	if !*quiet {
		logger := log.New(stderr, "", log.LstdFlags)
		opts = append(opts, runtime.WithLogger(func(format string, args ...any) {
			logger.Printf(format, args...)
		}))
	}
	w, err := runtime.NewWorker(*id, *addr, opts...)
	if err != nil {
		fmt.Fprintf(stderr, "piconode: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "piconode %s listening on %s\n", w.ID(), w.Addr())

	// Install the signal handler before announcing readiness so a test (or
	// supervisor) that signals immediately is never lost to the default
	// process-killing disposition.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	if ready != nil {
		ready <- w
	}

	done := make(chan error, 1)
	go func() { done <- w.Serve() }()
	select {
	case sig := <-sigs:
		// Graceful drain: stop accepting, let in-flight coordinator
		// connections finish their tiles within the grace budget, then
		// sever whatever lingers. A second signal aborts immediately.
		fmt.Fprintf(stdout, "piconode: %v, draining in-flight work (grace %v, signal again to abort)\n", sig, *grace)
		go func() {
			<-sigs
			fmt.Fprintln(stdout, "piconode: second signal, aborting")
			w.Abort()
		}()
		if err := w.Shutdown(*grace); err != nil {
			fmt.Fprintf(stderr, "piconode: shutdown: %v\n", err)
		}
		if err := <-done; err != nil {
			fmt.Fprintf(stderr, "piconode: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, "piconode: drained")
	case err := <-done:
		if err != nil {
			fmt.Fprintf(stderr, "piconode: %v\n", err)
			return 1
		}
	}
	return 0
}
