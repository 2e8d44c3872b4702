//go:build goexperiment.synctest

//go:debug asynctimerchan=0

// The paper's testbed in virtual time: the real Pipeline, Workers and
// kernels, over an in-memory network, inside a testing/synctest bubble. Real
// compute and transfers cost zero virtual seconds there, so each worker's
// emulated-speed sleep is the whole of its device time and the runtime must
// reproduce the cost model's compute term exactly. Run with
// `make testbed` (GOEXPERIMENT=synctest); go.mod's go 1.22 defaults
// asynctimerchan=1, under which synctest.Run panics, hence the go:debug line.

package runtime

import (
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"pico/internal/cluster"
	"pico/internal/core"
	"pico/internal/nn"
	"pico/internal/schemes"
	"pico/internal/tensor"
)

// memNet is an in-memory network over net.Pipe: listen hands out "mem-N"
// addresses and dial connects to one. Its listeners' channels are created by
// the listen calls, so inside a bubble every block on them is durable.
type memNet struct {
	mu  sync.Mutex
	lns map[string]*memListener
}

type memListener struct {
	addr   net.Addr
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func (n *memNet) listen(string) (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	addr := &net.UnixAddr{Name: fmt.Sprintf("mem-%d", len(n.lns)), Net: "mem"}
	l := &memListener{addr: addr, conns: make(chan net.Conn), closed: make(chan struct{})}
	n.lns[addr.Name] = l
	return l, nil
}

func (n *memNet) dial(addr string) (net.Conn, error) {
	n.mu.Lock()
	l := n.lns[addr]
	n.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("dial %s: no such listener", addr)
	}
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.closed:
		return nil, fmt.Errorf("dial %s: %w", addr, net.ErrClosed)
	}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *memListener) Addr() net.Addr { return l.addr }

// useMemNet routes the runtime's transport through a fresh in-memory network
// until the test ends.
func useMemNet(t *testing.T) {
	n := &memNet{lns: map[string]*memListener{}}
	prevDial, prevListen := dial, listen
	dial, listen = n.dial, n.listen
	t.Cleanup(func() { dial, listen = prevDial, prevListen })
}

// testbedSeed is the weight seed of every testbed pipeline and its reference.
const testbedSeed = 3

// testbedRun is what one bubble observed: every task's completion instant
// from the bubble's start and output, and each device's worker-reported
// compute seconds and tile count.
type testbedRun struct {
	done    []time.Duration
	outputs []tensor.Tensor
	busy    map[int]WorkerStat
}

// runTestbed drives the plan on emulated-speed workers inside a bubble: a
// closed loop that keeps window tasks in flight until tasks have completed.
func runTestbed(plan *core.Plan, quant bool, window, tasks int) (run testbedRun, err error) {
	synctest.Run(func() {
		speeds := make([]float64, plan.Cluster.Size())
		for i, d := range plan.Cluster.Devices {
			speeds[i] = d.EffectiveSpeed()
		}
		lc, e := StartLocalCluster(len(speeds), speeds)
		if e != nil {
			err = e
			return
		}
		defer func() { err = errors.Join(err, lc.Close()) }()
		p, e := NewPipeline(plan, lc.Addrs, PipelineOptions{Seed: testbedSeed, Quantized: quant})
		if e != nil {
			err = e
			return
		}
		defer func() { err = errors.Join(err, p.Close()) }()
		start, submitted := time.Now(), 0
		for len(run.done) < tasks {
			for ; submitted < tasks && submitted-len(run.done) < window; submitted++ {
				if _, e := p.Submit(tensor.RandomInput(plan.Model.Input, int64(submitted))); e != nil {
					err = e
					return
				}
			}
			res := <-p.Results()
			if res.Err != nil {
				err = fmt.Errorf("task %d: %w", res.ID, res.Err)
				return
			}
			run.done = append(run.done, res.Done.Sub(start))
			run.outputs = append(run.outputs, res.Output)
		}
		run.busy = p.WorkerStats()
	})
	return run, err
}

// TestTestbedComputeMatchesModel runs ToyChain and TinyGraph on the paper's
// eight heterogeneous devices through the LW, EFL, OFL and PICO plans in both
// precisions (the int8 pipeline calibrates on the coordinator, in the bubble,
// at default kernel parallelism). Each device's compute seconds per task must
// equal plan.Stats' FLOPs/speed, and PICO's period — the virtual time
// between steady-state completions — its compute-only period. Both agree to
// 1e-6 relative, plus a nanosecond per tile: emulate sleeps a time.Duration,
// and TinyGraph's tiles are tens of microseconds. Every output is
// bit-identical to a local executor's, and a rerun reproduces every output
// and device second bit for bit — and, on a device-disjoint plan, every
// completion instant.
func TestTestbedComputeMatchesModel(t *testing.T) {
	useMemNet(t)
	cl := cluster.PaperHeterogeneous()
	for _, m := range []*nn.Model{nn.ToyChain("testbed", 6, 2, 16, 64), nn.TinyGraph()} {
		for _, scheme := range []string{"lw", "efl", "ofl", "pico"} {
			for _, quant := range []bool{false, true} {
				name := m.Name + "/" + scheme
				if quant {
					name += "/int8"
				}
				t.Run(name, func(t *testing.T) {
					plan, err := schemes.Plan(scheme, m, cl, core.Options{Quantized: quant})
					if err != nil {
						t.Fatal(err)
					}
					if scheme == "pico" && len(plan.SerialGroups()) != len(plan.Stages) {
						t.Fatalf("PICO plan shares a device between stages:\n%s", plan.Describe())
					}
					checkTestbed(t, plan, quant)
				})
			}
		}
	}
}

func checkTestbed(t *testing.T, plan *core.Plan, quant bool) {
	// Enough tasks in flight to keep every stage busy, then a steady stretch
	// to time.
	const steady = 8
	window := 4 * len(plan.Stages)
	tasks := window + steady
	run, err := runTestbed(plan, quant, window, tasks)
	if err != nil {
		t.Fatal(err)
	}

	ref, err := tensor.NewExecutor(plan.Model, testbedSeed, tensor.WithQuantized())
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range run.outputs {
		in := tensor.RandomInput(plan.Model.Input, int64(i))
		var want tensor.Tensor
		if quant {
			q, err := ref.RunQ(in)
			if err != nil {
				t.Fatal(err)
			}
			want = q.Dequantize()
		} else if want, err = ref.Run(in); err != nil {
			t.Fatal(err)
		}
		if !tensor.Equal(got, want) {
			t.Fatalf("task %d: output differs from a local run by %g", i, tensor.MaxAbsDiff(got, want))
		}
	}

	// tol is 1e-6 relative plus the nanosecond each of n tiles may round off.
	tol := func(want float64, n int) float64 { return 1e-6*want + float64(n)*1e-9 }
	stats := plan.Stats(plan.CostModel())
	tilesPerTask := map[int]int{}
	for _, st := range plan.Stages {
		for k, di := range st.DeviceIdx {
			if !st.Parts[k].Empty() {
				tilesPerTask[di]++
			}
		}
	}
	for di, want := range stats.DeviceBusySeconds {
		b := run.busy[di]
		if b.Tiles != tilesPerTask[di]*tasks {
			t.Errorf("device %d ran %d tiles, want %d per task x %d", di, b.Tiles, tilesPerTask[di], tasks)
		}
		if got := b.ComputeSeconds / float64(tasks); math.Abs(got-want) > tol(want, tilesPerTask[di]) {
			t.Errorf("device %d: %.9f s of compute per task, the model %.9f s", di, got, want)
		}
	}

	disjoint := len(plan.SerialGroups()) == len(plan.Stages)
	if disjoint {
		// Device-disjoint, as every PICO plan is: the period is the slowest
		// stage's compute.
		want := 0.0
		for _, st := range plan.Stages {
			want = max(want, st.CompSeconds)
		}
		got := (run.done[tasks-1] - run.done[tasks-1-steady]).Seconds() / steady
		if math.Abs(got-want) > tol(want, 1) {
			t.Errorf("period %.9f s, the compute-only period %.9f s\n%s", got, want, plan.Describe())
		}
	}

	// Outputs and device seconds never depend on the schedule. Completion
	// instants do where two stages share a device: which stage's tile takes
	// the lane at a tie in virtual time is decided in real time.
	again, err := runTestbed(plan, quant, window, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if disjoint && !reflect.DeepEqual(run.done, again.done) {
		t.Errorf("rerun differs:\n completions %v\n then        %v", run.done, again.done)
	}
	if !reflect.DeepEqual(run.busy, again.busy) {
		t.Errorf("rerun differs:\n device seconds %v\n then           %v", run.busy, again.busy)
	}
	for i := range run.outputs {
		if !tensor.Equal(run.outputs[i], again.outputs[i]) {
			t.Errorf("rerun: task %d's output differs", i)
		}
	}
}

// TestTestbedSharedDevicePeriod is TestSharedDevicePeriodOnEmulatedWorkers in
// virtual time: the same model, devices, link and schemes, and the same
// window on the stream's makespan over tasks x the plan's period, with no CPU
// contention to decide it. Building the weights costs no virtual time, so the
// stream needs no warm-up task.
func TestTestbedSharedDevicePeriod(t *testing.T) {
	useMemNet(t)
	m := nn.ToyChain("per", 5, 2, 8, 48)
	cl := &cluster.Cluster{BandwidthBps: 4e9}
	for i, s := range []float64{24e6, 16e6, 12e6} {
		cl.Devices = append(cl.Devices, cluster.Device{ID: fmt.Sprintf("emu-%d", i), Capacity: s, Alpha: 1})
	}
	for _, scheme := range []string{"ofl", "lw"} {
		plan, err := schemes.Plan(scheme, m, cl, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Stages) < 2 || len(plan.SerialGroups()) != 1 {
			t.Fatalf("%s: want several stages in one serial group:\n%s", scheme, plan.Describe())
		}
		const tasks = 6
		run, err := runTestbed(plan, false, tasks, tasks)
		if err != nil {
			t.Fatal(err)
		}
		period := run.done[tasks-1].Seconds() / tasks
		ratio := period / plan.PeriodSeconds
		t.Logf("%s: period %.6f ms, plan %.6f ms, ratio %.6f", scheme, period*1e3, plan.PeriodSeconds*1e3, ratio)
		if ratio < 0.8 || ratio > 1.3 {
			t.Fatalf("%s: a task completes every %.1f ms, the plan's period is %.1f ms (ratio %.2f, want 0.8-1.3)\n%s",
				scheme, period*1e3, plan.PeriodSeconds*1e3, ratio, plan.Describe())
		}
	}
}
