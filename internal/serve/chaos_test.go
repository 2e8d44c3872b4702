package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	goruntime "runtime"
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
