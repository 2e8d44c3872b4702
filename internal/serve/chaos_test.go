package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	goruntime "runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pico/internal/runtime"
	"pico/internal/tensor"
)

// TestGatewayLedgerUnderFault crashes one of three workers mid-burst while a
// third of 32 concurrent clients hang up in flight. The victim is the pipeline
// plan's one device in its last stage, so the crash fails the tasks behind it
// rather than moving them to a replica. Whatever a request meets — its
// result, a failed task, its own client leaving — the ledger balances after
// Shutdown, every 200 carries a local run's bytes, and the gateway, its
// pipelines and the cluster leave no goroutine behind.
func TestGatewayLedgerUnderFault(t *testing.T) {
	watchdog := time.AfterFunc(3*time.Minute, func() { panic("watchdog: gateway ledger test wedged") })
	defer watchdog.Stop()
	before := goruntime.NumGoroutine()

	const emulatedHz = 2e7 // tasks take tens of ms, so hang-ups land in flight
	const victim, clients = 0, 32
	lc, err := runtime.StartLocalClusterWith(3, nil, func(i int) []runtime.WorkerOption {
		if i != victim {
			return nil
		}
		return []runtime.WorkerOption{runtime.WithFault(runtime.Fault{CrashOnExec: 6})}
	}, runtime.WithEmulatedSpeed(emulatedHz))
	if err != nil {
		t.Fatal(err)
	}
	closeCluster := sync.OnceValue(lc.Close)
	t.Cleanup(func() { _ = closeCluster() })
	f := newGateway(t, lc, emulatedHz, func(c *Config) {
		c.MaxQueue = 64
		c.LatencyBound = 1e9
	}).serve(t)

	ref, err := tensor.NewExecutor(f.model, 99)
	if err != nil {
		t.Fatal(err)
	}
	inputs, wants := make([][]byte, clients), make([][]byte, clients)
	for i := range inputs {
		in := tensor.RandomInput(f.model.Input, int64(i))
		out, err := ref.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		inputs[i], wants[i] = encode(in), encode(out)
	}

	tr := &http.Transport{}
	client := &http.Client{Transport: tr, Timeout: time.Minute}
	statuses := make([]int, clients) // 0: no response
	cancels := make([]context.CancelFunc, clients)
	var wg sync.WaitGroup
	for i := range inputs {
		ctx, cancel := context.WithCancel(context.Background())
		cancels[i] = cancel
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.base+"/infer", bytes.NewReader(inputs[i]))
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := client.Do(req)
			if err != nil {
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return
			}
			statuses[i] = resp.StatusCode
			if resp.StatusCode == http.StatusOK && !bytes.Equal(body, wants[i]) {
				t.Errorf("client %d: response differs from a local run", i)
			}
		}()
	}
	// Once every client is admitted or turned away, hang up a third of them:
	// their tasks are queued or in flight by then.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		st := f.g.GatewayStats()
		if st.Admitted+st.Rejected+st.Shed >= clients || time.Now().After(deadline) {
			break
		}
	}
	for i := 0; i < clients; i += 3 {
		cancels[i]()
	}
	wg.Wait()
	for _, cancel := range cancels {
		cancel()
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := f.g.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-f.serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
	f.serveErr <- nil // keep the fixture cleanup happy
	st := f.g.GatewayStats()
	if st.Queued != 0 || st.Admitted == 0 || st.Admitted != st.Completed+st.Failed+st.Canceled {
		t.Fatalf("ledger after drain: admitted %d != completed %d + failed %d + canceled %d, queued %d",
			st.Admitted, st.Completed, st.Failed, st.Canceled, st.Queued)
	}
	t.Logf("admitted %d: completed %d, failed %d, canceled %d; rejected %d, shed %d", st.Admitted, st.Completed, st.Failed, st.Canceled, st.Rejected, st.Shed)
	if st.Canceled == 0 {
		t.Errorf("no hang-up landed in flight: %+v", st)
	}
	ok := 0
	for _, s := range statuses {
		if s == http.StatusOK {
			ok++
		}
	}
	if int64(ok) > st.Completed {
		t.Fatalf("%d 200s but %d completed", ok, st.Completed)
	}
	if conn, err := net.Dial("tcp", lc.Addrs[victim]); err == nil {
		conn.Close()
		t.Fatal("the armed worker never crashed")
	}

	tr.CloseIdleConnections()
	if err := closeCluster(); err != nil && !errors.Is(err, net.ErrClosed) {
		t.Fatalf("cluster close: %v", err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		n := goruntime.NumGoroutine()
		if n <= before+4 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines left, %d before the gateway:\n%s", n, before, buf[:goruntime.Stack(buf, true)])
		}
	}
}

// TestShutdownWaitsForRetiredSession retires a session while one of its tiles
// hangs, and checks that Shutdown waits for the retired pipeline to close.
// Stage 1's only device crashes on its first tile and stays down, a second
// task's stage-0 tile hangs on a wedged worker with its client gone, and a
// third request finds the session unservable and replaces it. The retired
// pipeline then drains until the hung tile's deadline, and Shutdown must not
// return before it has.
func TestShutdownWaitsForRetiredSession(t *testing.T) {
	watchdog := time.AfterFunc(2*time.Minute, func() { panic("watchdog: retired-session shutdown test wedged") })
	defer watchdog.Stop()

	const emulatedHz = 2e7
	const last, wedged = 0, 1 // stage 1's only device; a stage-0 device
	lc, err := runtime.StartLocalClusterWith(3, nil, func(i int) []runtime.WorkerOption {
		switch i {
		case last:
			return []runtime.WorkerOption{runtime.WithFault(runtime.Fault{CrashOnExec: 1})}
		case wedged:
			return []runtime.WorkerOption{runtime.WithFault(runtime.Fault{HangFromExec: 2})}
		}
		return nil
	}, runtime.WithEmulatedSpeed(emulatedHz))
	if err != nil {
		t.Fatal(err)
	}
	closeCluster := sync.OnceValue(lc.Close)
	t.Cleanup(func() { _ = closeCluster() })
	f := newGateway(t, lc, emulatedHz, func(c *Config) { c.LatencyBound = 1e9 }).serve(t)

	payload := encode(tensor.RandomInput(f.model.Input, 1))
	post := func(ctx context.Context) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.base+"/infer", bytes.NewReader(payload))
		if err != nil {
			t.Error(err)
			return
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	admitted := func(n int64) func() bool { return func() bool { return f.g.GatewayStats().Admitted == n } }

	go post(context.Background()) // its stage-1 tile crashes the last stage
	waitFor("the first task", admitted(1))
	sessions := f.g.pool.snapshot()
	if len(sessions) != 1 {
		t.Fatalf("%d sessions open, want 1", len(sessions))
	}
	old := sessions[0]
	if st := old.pipe.Plan().Stages; len(st) != 2 || !slices.Equal(st[1].DeviceIdx, []int{last}) || !slices.Contains(st[0].DeviceIdx, wedged) {
		t.Fatalf("test needs stage 0 on device %d and stage 1 on device %d alone, plan is %v", wedged, last, old.pipe.Plan())
	}
	ctx, hangUp := context.WithCancel(context.Background())
	hung := make(chan struct{})
	go func() {
		defer close(hung)
		post(ctx) // its stage-0 tile is the wedged worker's second exec
	}()
	waitFor("the second task", admitted(2))
	if s := f.g.pool.snapshot(); len(s) != 1 || s[0] != old {
		t.Fatal("the second task found the session already retired")
	}
	hangUp()
	<-hung
	waitFor("the last stage to go down", func() bool { return !old.servable() })
	post(context.Background()) // retires the session

	sctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := f.g.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// A goroutine that has just returned from Done may not have exited yet.
	for deadline := time.Now().Add(time.Second); ; time.Sleep(10 * time.Millisecond) {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:goruntime.Stack(buf, true)])
		if !strings.Contains(stacks, "serve.(*pool).get") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("a retired session is still closing after Shutdown returned:\n%s", stacks)
		}
	}
}
