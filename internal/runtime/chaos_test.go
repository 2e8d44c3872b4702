package runtime

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pico/internal/cluster"
	"pico/internal/core"
	"pico/internal/nn"
	"pico/internal/partition"
	"pico/internal/schemes"
	"pico/internal/tensor"
	"pico/internal/wire"
)

// The chaos suite drives the pipeline through injected worker faults —
// crashes, hangs, flaky connections, panics — and asserts the recovery
// contract: every submitted task resolves (output or typed error, never a
// deadlock), surviving replicas absorb the dead device's strips, and the
// pipeline shuts down cleanly afterwards. Every test runs under a watchdog
// so a regression shows up as a failure, not a hung `go test -race`.

// chaosPlan is a single-stage plan splitting the full model across n
// replica devices — every device holds the whole model, so any replica can
// execute any strip, the topology retry and re-balancing need.
func chaosPlan(t *testing.T, m *nn.Model, n int) *core.Plan {
	t.Helper()
	calc := partition.NewCalc(m)
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	plan := &core.Plan{
		Model:   m,
		Cluster: cluster.Homogeneous(n, 600e6),
		Stages: []core.Stage{{
			From: 0, To: m.NumLayers(),
			DeviceIdx: idx,
			Parts:     calc.Balanced(0, m.NumLayers(), w),
		}},
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	return plan
}

// startFaultCluster launches n workers where perWorker(i) arms per-worker
// fault plans. Cleanup closes the cluster (idempotent even if a test
// Aborts a victim first).
func startFaultCluster(t *testing.T, n int, perWorker func(i int) []WorkerOption) *LocalCluster {
	t.Helper()
	lc, err := StartLocalClusterWith(n, nil, perWorker)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := lc.Close(); err != nil && !errors.Is(err, errClosed) {
			t.Errorf("cluster close: %v", err)
		}
	})
	return lc
}

// drainResults collects exactly want results under a watchdog; a missing
// result (a deadlocked task) fails the test rather than hanging the run.
func drainResults(t *testing.T, p *Pipeline, want int, timeout time.Duration) []TaskResult {
	t.Helper()
	out := make([]TaskResult, 0, want)
	deadline := time.After(timeout)
	for len(out) < want {
		select {
		case res, ok := <-p.Results():
			if !ok {
				t.Fatalf("results closed after %d of %d tasks", len(out), want)
			}
			out = append(out, res)
		case <-deadline:
			t.Fatalf("watchdog: %d of %d tasks resolved within %v", len(out), want, timeout)
		}
	}
	return out
}

func chaosOptions() PipelineOptions {
	return PipelineOptions{Seed: 9, ExecTimeout: 2 * time.Second}
}

// TestChaosWorkerKilledMidStream crashes one of three replicas while a task
// stream is in flight. Contract: every task resolves — on the survivors via
// retry, or (at most briefly, around the crash) with a typed ErrWorkerFault
// — the victim is eventually marked down, and its strip is re-balanced.
func TestChaosWorkerKilledMidStream(t *testing.T) {
	m := nn.ToyChain("chaos-kill", 4, 0, 6, 32)
	const n, tasks, killAfter = 3, 20, 5
	plan := chaosPlan(t, m, n)
	lc := startFaultCluster(t, n, nil)
	p, err := NewPipeline(plan, lc.Addrs, chaosOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Close the pipeline before the cluster even when an assertion fails
	// mid-test: worker handlers exit only when the coordinator hangs up, so
	// a still-open pipeline would deadlock the cluster cleanup. Close is
	// idempotent, so the explicit happy-path Close below is unaffected.
	t.Cleanup(func() { _ = p.Close() })
	ref, err := tensor.NewExecutor(m, 9)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]tensor.Tensor, tasks)
	for i := range inputs {
		inputs[i] = tensor.RandomInput(m.Input, int64(i))
	}
	go func() {
		for i, in := range inputs {
			if i == killAfter {
				if err := lc.Workers[1].Abort(); err != nil && !errors.Is(err, errClosed) {
					t.Logf("abort: %v", err)
				}
			}
			if _, err := p.Submit(in); err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
		}
	}()
	results := drainResults(t, p, tasks, 60*time.Second)
	ok := 0
	for _, res := range results {
		if res.Err != nil {
			if !errors.Is(res.Err, ErrWorkerFault) {
				t.Fatalf("task %d failed with untyped error: %v", res.ID, res.Err)
			}
			continue
		}
		want, err := ref.Run(inputs[res.ID-1])
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.Equal(want, res.Output) {
			t.Fatalf("task %d: output differs by %g", res.ID, tensor.MaxAbsDiff(want, res.Output))
		}
		ok++
	}
	// The crash window can fail a few in-flight tasks; the stream as a
	// whole must keep completing on the survivors.
	if ok < tasks-killAfter {
		t.Fatalf("only %d of %d tasks succeeded after the crash", ok, tasks)
	}
	// The victim must go down once its redial budget is spent (dial to the
	// closed listener fails fast, so this converges quickly).
	waitFor(t, 5*time.Second, "device 1 marked down", func() bool {
		for _, di := range p.DownDevices() {
			if di == 1 {
				return true
			}
		}
		return false
	})
	// The redial goroutine marks the slot down first and re-balances next, so
	// the journal entry can trail DownDevices by a scheduling quantum.
	waitFor(t, 5*time.Second, "rebalance event after device went down", func() bool {
		events, _ := p.FaultEvents()
		return hasKind(events, FaultRebalanced)
	})
	if err := p.Close(); err != nil {
		t.Errorf("close after chaos: %v", err)
	}
}

// TestChaosSharedDeviceWorkerKilled crashes a worker that serves several
// stages of one plan. Each of its stages recovers by its own rules — a stage
// with survivors retries and re-balances, a stage it served alone fails tasks
// fast with a typed error — every completed task is byte-exact, and the
// device is reported down once, not once per stage.
func TestChaosSharedDeviceWorkerKilled(t *testing.T) {
	m := nn.ToyChain("chaos-shared", 4, 2, 6, 32)
	cl := cluster.Homogeneous(3, 600e6)
	for _, tc := range []struct {
		scheme string
		// soleStage: the victim is the only device of the plan's last stage.
		soleStage bool
	}{
		{"efl", true}, // the fused block re-balances, the one-device tail dies
		{"lw", false}, // every layer's stage re-balances onto the survivors
	} {
		t.Run(tc.scheme, func(t *testing.T) {
			plan, err := schemes.Plan(tc.scheme, m, cl, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			last := plan.Stages[len(plan.Stages)-1]
			victim := last.DeviceIdx[0]
			if (last.Workers() == 1) != tc.soleStage || plan.Stages[0].Workers() != cl.Size() {
				t.Fatalf("unexpected %s plan:\n%s", tc.scheme, plan.Describe())
			}
			const tasks, healthy = 12, 4
			lc := startFaultCluster(t, cl.Size(), nil)
			p, err := NewPipeline(plan, lc.Addrs, chaosOptions())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = p.Close() })
			ref, err := tensor.NewExecutor(m, 9)
			if err != nil {
				t.Fatal(err)
			}
			in := tensor.RandomInput(m.Input, 1)
			want, err := ref.Run(in)
			if err != nil {
				t.Fatal(err)
			}
			// A healthy prefix, then the crash with the rest of the stream
			// behind it.
			submit := func(n int) []TaskResult {
				go func() {
					for i := 0; i < n; i++ {
						if _, err := p.Submit(in); err != nil {
							t.Errorf("submit: %v", err)
							return
						}
					}
				}()
				return drainResults(t, p, n, 60*time.Second)
			}
			ok := 0
			check := func(results []TaskResult) {
				for _, res := range results {
					if res.Err != nil {
						if !errors.Is(res.Err, ErrWorkerFault) {
							t.Fatalf("task %d failed with untyped error: %v", res.ID, res.Err)
						}
						continue
					}
					if !tensor.Equal(want, res.Output) {
						t.Fatalf("task %d: output differs by %g", res.ID, tensor.MaxAbsDiff(want, res.Output))
					}
					ok++
				}
			}
			check(submit(healthy))
			if ok != healthy {
				t.Fatalf("%d of %d tasks succeeded before the crash", ok, healthy)
			}
			if err := lc.Workers[victim].Abort(); err != nil && !errors.Is(err, errClosed) {
				t.Logf("abort: %v", err)
			}
			check(submit(tasks - healthy))
			// With its tail dead the plan completes no task after the crash;
			// with survivors in every stage, retries complete them all.
			if tc.soleStage && ok != healthy || !tc.soleStage && ok != tasks {
				t.Fatalf("%d of %d tasks succeeded, %d ahead of the crash", ok, tasks, healthy)
			}
			// Every slot of the victim goes down once its redial budget is
			// spent; the device is still listed once.
			waitFor(t, 5*time.Second, "every stage of the victim settled", func() bool {
				events, _ := p.FaultEvents()
				settled := 0
				for _, ev := range events {
					if ev.Device == -1 && (ev.Kind == FaultRebalanced || ev.Kind == FaultDown) {
						settled++
					}
				}
				return settled == len(plan.Stages)
			})
			if down := p.Health().DownDevices; len(down) != 1 || down[0] != victim {
				t.Fatalf("down devices %v, want [%d] once", down, victim)
			}
			if p.Servable() == tc.soleStage {
				t.Fatalf("servable = %v with the victim's sole stage dead = %v", p.Servable(), tc.soleStage)
			}
			if err := p.Close(); err != nil {
				t.Errorf("close after chaos: %v", err)
			}
		})
	}
}

// TestChaosHangingWorkerDeadlineRecovers wedges one of two replicas (execs
// accepted, never answered — the failure mode only a deadline can detect).
// Every task must still complete correctly via deadline + retry on the
// healthy replica.
func TestChaosHangingWorkerDeadlineRecovers(t *testing.T) {
	m := nn.ToyChain("chaos-hang", 4, 0, 6, 32)
	const n, tasks = 2, 6
	plan := chaosPlan(t, m, n)
	lc := startFaultCluster(t, n, func(i int) []WorkerOption {
		if i == 1 {
			return []WorkerOption{WithFault(Fault{HangFromExec: 3})}
		}
		return nil
	})
	opts := chaosOptions()
	opts.ExecTimeout = time.Second
	p, err := NewPipeline(plan, lc.Addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	ref, err := tensor.NewExecutor(m, 9)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]tensor.Tensor, tasks)
	for i := range inputs {
		inputs[i] = tensor.RandomInput(m.Input, int64(i))
	}
	go func() {
		for i, in := range inputs {
			if _, err := p.Submit(in); err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
		}
	}()
	for _, res := range drainResults(t, p, tasks, 60*time.Second) {
		if res.Err != nil {
			t.Fatalf("task %d: %v", res.ID, res.Err)
		}
		want, err := ref.Run(inputs[res.ID-1])
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.Equal(want, res.Output) {
			t.Fatalf("task %d: output differs by %g", res.ID, tensor.MaxAbsDiff(want, res.Output))
		}
	}
	events, _ := p.FaultEvents()
	if !hasKind(events, FaultTimeout) {
		t.Fatalf("hung worker produced no timeout event; events: %v", events)
	}
	if err := p.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}

// TestChaosFlakyConnRedialHeals severs the victim's first connection at the
// wire layer mid-stream. The replacement connection is clean, so redial must
// fully heal the pipeline: zero failed tasks, a redialed event, no device
// down.
func TestChaosFlakyConnRedialHeals(t *testing.T) {
	m := nn.ToyChain("chaos-flaky", 4, 0, 6, 32)
	const n, tasks = 2, 10
	plan := chaosPlan(t, m, n)
	lc := startFaultCluster(t, n, func(i int) []WorkerOption {
		if i == 1 {
			// The worker's conn writes are hello + one result per exec;
			// severing after 4 writes kills the stream mid-run.
			return []WorkerOption{WithFault(Fault{
				Wire:           wire.FlakyOptions{Seed: 7, CloseAfterWrites: 4},
				WireFirstConns: 1,
			})}
		}
		return nil
	})
	p, err := NewPipeline(plan, lc.Addrs, chaosOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	ref, err := tensor.NewExecutor(m, 9)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]tensor.Tensor, tasks)
	for i := range inputs {
		inputs[i] = tensor.RandomInput(m.Input, int64(i))
	}
	go func() {
		for i, in := range inputs {
			if _, err := p.Submit(in); err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
		}
	}()
	for _, res := range drainResults(t, p, tasks, 60*time.Second) {
		if res.Err != nil {
			t.Fatalf("task %d failed despite redial: %v", res.ID, res.Err)
		}
		want, err := ref.Run(inputs[res.ID-1])
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.Equal(want, res.Output) {
			t.Fatalf("task %d: output differs by %g", res.ID, tensor.MaxAbsDiff(want, res.Output))
		}
	}
	// The redial runs in the background and may land after the last result
	// drains; poll for it rather than racing it.
	waitFor(t, 5*time.Second, "redialed event", func() bool {
		events, _ := p.FaultEvents()
		return hasKind(events, FaultRedialed)
	})
	if down := p.DownDevices(); len(down) != 0 {
		t.Fatalf("redial should heal, but devices %v are down", down)
	}
	if err := p.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}

// TestWorkerPanicContained is the satellite regression for panic
// containment: a panicking executor request is answered with an error frame
// (a deterministic failure, not ErrWorkerFault — retrying would panic
// again), and the worker keeps serving subsequent requests.
func TestWorkerPanicContained(t *testing.T) {
	m := nn.ToyChain("chaos-panic", 4, 0, 6, 32)
	plan := chaosPlan(t, m, 1)
	lc := startFaultCluster(t, 1, func(int) []WorkerOption {
		return []WorkerOption{WithFault(Fault{PanicOnExec: 1})}
	})
	p, err := NewPipeline(plan, lc.Addrs, chaosOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := p.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	in := tensor.RandomInput(m.Input, 1)
	if _, err := p.Submit(in); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(in); err != nil {
		t.Fatal(err)
	}
	results := drainResults(t, p, 2, 30*time.Second)
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "panic") {
		t.Fatalf("panicking exec: want panic error, got %v", results[0].Err)
	}
	if errors.Is(results[0].Err, ErrWorkerFault) {
		t.Fatalf("panic reply misclassified as transient worker fault: %v", results[0].Err)
	}
	if results[1].Err != nil {
		t.Fatalf("worker stopped serving after contained panic: %v", results[1].Err)
	}
	ref, err := tensor.NewExecutor(m, 9)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(want, results[1].Output) {
		t.Fatalf("post-panic output differs by %g", tensor.MaxAbsDiff(want, results[1].Output))
	}
}

// TestDeadlineFailsConnAndWakesPending covers the send/wait terminal-error
// contract at the client layer: when one call's deadline fires, the
// connection is failed, so every other pending call on it wakes immediately
// instead of burning its own full deadline.
func TestDeadlineFailsConnAndWakesPending(t *testing.T) {
	lc := startFaultCluster(t, 1, func(int) []WorkerOption {
		return []WorkerOption{WithFault(Fault{HangFromExec: 1})}
	})
	wc, err := dialWorker(lc.Addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer wc.close()
	m := nn.ToyChain("chaos-wake", 2, 0, 4, 16)
	if err := wc.loadModel(wire.SpecFromModel(m), 1, nil, 0, m.NumLayers()); err != nil {
		t.Fatal(err)
	}
	tile := tensor.RandomInput(m.Input, 1)
	out := whole(m.Output())
	c1, err := wc.startExec(out, tensor.MapOf(tile))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := wc.startExec(out, tensor.MapOf(tile))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, transient, err := c1.waitExec(300 * time.Millisecond); err == nil || !transient {
		t.Fatalf("hung exec: want transient deadline error, got transient=%v err=%v", transient, err)
	}
	start := time.Now()
	_, _, transient, err := c2.waitExec(time.Minute)
	if err == nil || !transient {
		t.Fatalf("second pending call: want transient error, got transient=%v err=%v", transient, err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("second pending call waited %v; the failed conn should wake it immediately", waited)
	}
	if wc.alive() {
		t.Fatal("deadline expiry must be terminal for the connection")
	}
}

// TestChaosGridWorkerKilledMidStream crashes one worker of a 2x2 grid stage
// while tasks stream through it — fault coverage the grid path never had
// before it became a Pipeline stage. Contract: every task completes
// byte-exact (the victim's quadrant re-executes on a surviving replica), the
// victim goes down, and the stage re-balances to row strips over the three
// survivors, which keep producing exact outputs.
func TestChaosGridWorkerKilledMidStream(t *testing.T) {
	m := nn.ToyChain("chaos-grid", 4, 0, 6, 33)
	const n, tasks, killAfter = 4, 16, 4
	lc := startFaultCluster(t, n, nil)
	p := gridPipeline(t, m, lc, 2, 2, chaosOptions())
	ref, err := tensor.NewExecutor(m, 9)
	if err != nil {
		t.Fatal(err)
	}
	check := func(res TaskResult, in tensor.Tensor) {
		t.Helper()
		if res.Err != nil {
			t.Fatalf("task %d failed: %v", res.ID, res.Err)
		}
		want, err := ref.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.Equal(want, res.Output) {
			t.Fatalf("task %d: output differs by %g", res.ID, tensor.MaxAbsDiff(want, res.Output))
		}
	}
	inputs := make([]tensor.Tensor, tasks)
	for i := range inputs {
		inputs[i] = tensor.RandomInput(m.Input, int64(i))
	}
	go func() {
		for i, in := range inputs {
			if i == killAfter {
				if err := lc.Workers[3].Abort(); err != nil && !errors.Is(err, errClosed) {
					t.Logf("abort: %v", err)
				}
			}
			if _, err := p.Submit(in); err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
		}
	}()
	for _, res := range drainResults(t, p, tasks, 60*time.Second) {
		check(res, inputs[res.ID-1])
	}
	waitFor(t, 5*time.Second, "rebalance event after device 3 went down", func() bool {
		events, _ := p.FaultEvents()
		return hasKind(events, FaultRebalanced)
	})
	if down := p.DownDevices(); len(down) != 1 || down[0] != 3 {
		t.Fatalf("down devices %v, want [3]", down)
	}
	// The live layout is now full-width strips on workers 0-2 only.
	sd := p.cur.Load().stages[0]
	sd.topoMu.Lock()
	tiles := sd.tiles
	sd.topoMu.Unlock()
	for k, tile := range tiles {
		if k == 3 != tile.Empty() || (k < 3 && tile.Cols != partition.Full(sd.out.W)) {
			t.Fatalf("layout after re-balance %v: want strips on the three survivors", tiles)
		}
	}
	before := p.WorkerStats()[3].Tiles
	in := tensor.RandomInput(m.Input, 99)
	if _, err := p.Submit(in); err != nil {
		t.Fatal(err)
	}
	check(drainResults(t, p, 1, 30*time.Second)[0], in)
	if after := p.WorkerStats()[3].Tiles; after != before {
		t.Fatalf("down device executed %d more tile(s)", after-before)
	}
	if err := p.Close(); err != nil {
		t.Errorf("close after chaos: %v", err)
	}
}

// TestChaosSwapRedialsLostWorker kills a worker while the pipeline is idle
// and then swaps plans: the drain finds nothing in flight, the new chain's
// dial to the dead worker fails. That must not fail or wedge the Swap — the
// slot comes up lost, goes through the ordinary redial loop, is marked down
// when the budget is spent, and its stage re-balances onto the survivors,
// which serve every task byte-exact.
func TestChaosSwapRedialsLostWorker(t *testing.T) {
	m := nn.ToyChain("chaos-swap", 4, 0, 6, 32)
	const n = 3
	lc := startFaultCluster(t, n, nil)
	first, second := chaosPlan(t, m, n), chaosPlan(t, m, n)
	p, err := NewPipeline(first, lc.Addrs, chaosOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	ref, err := tensor.NewExecutor(m, 9)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.RandomInput(m.Input, 1)
	want, err := ref.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := inferOne(t, p, in); !tensor.Equal(want, got) {
		t.Fatal("output differs before the swap")
	}
	if err := lc.Workers[1].Abort(); err != nil && !errors.Is(err, errClosed) {
		t.Logf("abort: %v", err)
	}
	swapped := make(chan error, 1)
	go func() { swapped <- p.Swap(second, "chaos") }()
	select {
	case err := <-swapped:
		if err != nil {
			t.Fatalf("swap over a dead worker failed: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("watchdog: Swap wedged on a dead worker")
	}
	if p.Plan() != second {
		t.Fatal("swap did not install the new plan")
	}
	const tasks = 6
	go func() {
		for i := 0; i < tasks; i++ {
			if _, err := p.Submit(in); err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
		}
	}()
	for _, res := range drainResults(t, p, tasks, 60*time.Second) {
		if res.Err != nil {
			t.Fatalf("task %d after the swap: %v", res.ID, res.Err)
		}
		if !tensor.Equal(want, res.Output) {
			t.Fatalf("task %d: output differs after the swap", res.ID)
		}
	}
	waitFor(t, 5*time.Second, "device 1 down and its stage re-balanced", func() bool {
		events, _ := p.FaultEvents()
		down := p.DownDevices()
		return hasKind(events, FaultRebalanced) && len(down) == 1 && down[0] == 1
	})
	events, _ := p.FaultEvents()
	if !hasKind(events, FaultConnLost) || !hasKind(events, FaultPlanSwapped) {
		t.Fatalf("journal lacks the lost dial or the swap: %v", events)
	}
}

// TestSubmitRacingCloseNeverPanics races eight submitters against one Close,
// thirty times over. Submit used to check the closed flag, drop the lock and
// then send — a Close in between closed the channel under the send and the
// process died with "send on closed channel". Holding the submit lock across
// the send makes the outcome binary: the task is accepted and delivered, or
// Submit returns the closed error.
func TestSubmitRacingCloseNeverPanics(t *testing.T) {
	m := nn.ToyChain("chaos-close", 2, 0, 4, 16)
	lc := startFaultCluster(t, 1, nil)
	plan := chaosPlan(t, m, 1)
	in := tensor.RandomInput(m.Input, 1)
	for round := 0; round < 30; round++ {
		p, err := NewPipeline(plan, lc.Addrs, chaosOptions())
		if err != nil {
			t.Fatal(err)
		}
		delivered := make(chan int, 1)
		go func() {
			n := 0
			for range p.Results() {
				n++
			}
			delivered <- n
		}()
		var accepted atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if _, err := p.Submit(in); err != nil {
						if !strings.Contains(err.Error(), "closed") {
							t.Errorf("submit: %v", err)
						}
						return
					}
					accepted.Add(1)
				}
			}()
		}
		time.Sleep(time.Duration(round%5) * time.Millisecond)
		if err := p.Close(); err != nil {
			t.Fatalf("round %d: close: %v", round, err)
		}
		wg.Wait()
		if got := <-delivered; int64(got) != accepted.Load() {
			t.Fatalf("round %d: %d tasks accepted, %d delivered", round, accepted.Load(), got)
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func hasKind(events []FaultEvent, kind FaultKind) bool {
	for _, ev := range events {
		if ev.Kind == kind {
			return true
		}
	}
	return false
}
