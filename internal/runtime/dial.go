package runtime

import (
	"errors"
	"net"
	"strconv"
	"time"

	"pico/internal/wire"
)

// errClosed matches close-after-close errors when tearing down clients.
var errClosed = net.ErrClosed

// dialTimeout bounds worker connection establishment.
const dialTimeout = 5 * time.Second

// dial and listen are the runtime's transport, TCP: every coordinator
// connection is dialled and every worker listens through them, so a test can
// run the whole runtime over an in-memory network instead.
var (
	dial   = func(addr string) (net.Conn, error) { return net.DialTimeout("tcp", addr, dialTimeout) }
	listen = func(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }
)

func dialTCP(addr string) (*wire.Conn, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	return wire.NewConn(c), nil
}

// LocalCluster spins up n in-process workers on ephemeral loopback ports —
// the single-machine stand-in for a rack of Raspberry Pis, used by tests and
// the runnable examples. Speeds, when non-nil, emulates per-worker capacity
// (effective MAC/s) by throttling.
type LocalCluster struct {
	Workers []*Worker
	// Addrs maps device index to worker address, ready for NewPipeline.
	Addrs map[int]string

	serveErr chan error
}

// StartLocalCluster launches the workers and their serve loops. Extra
// options (e.g. WithParallelism) are applied to every worker.
func StartLocalCluster(n int, speeds []float64, extra ...WorkerOption) (*LocalCluster, error) {
	return StartLocalClusterWith(n, speeds, nil, extra...)
}

// StartLocalClusterWith is StartLocalCluster with per-worker options:
// perWorker(i), when non-nil, returns extra options for worker i — how chaos
// tests arm a fault plan on one victim while the rest of the cluster runs
// clean.
func StartLocalClusterWith(n int, speeds []float64, perWorker func(i int) []WorkerOption, extra ...WorkerOption) (*LocalCluster, error) {
	if n <= 0 {
		return nil, errors.New("runtime: non-positive cluster size")
	}
	lc := &LocalCluster{
		Addrs:    make(map[int]string, n),
		serveErr: make(chan error, n),
	}
	for i := 0; i < n; i++ {
		var opts []WorkerOption
		if speeds != nil && i < len(speeds) && speeds[i] > 0 {
			opts = append(opts, WithEmulatedSpeed(speeds[i]))
		}
		opts = append(opts, extra...)
		if perWorker != nil {
			opts = append(opts, perWorker(i)...)
		}
		w, err := NewWorker("worker-"+strconv.Itoa(i), "127.0.0.1:0", opts...)
		if err != nil {
			_ = lc.Close()
			return nil, err
		}
		lc.Workers = append(lc.Workers, w)
		lc.Addrs[i] = w.Addr()
		go func(w *Worker) { lc.serveErr <- w.Serve() }(w)
	}
	return lc, nil
}

// Close shuts every worker down and waits for the serve loops.
func (lc *LocalCluster) Close() error {
	var firstErr error
	for _, w := range lc.Workers {
		if err := w.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for range lc.Workers {
		if err := <-lc.serveErr; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
