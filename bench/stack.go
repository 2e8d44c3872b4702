package main

import (
	"context"
	"fmt"
	"time"

	"pico/internal/nn"
	"pico/internal/runtime"
	"pico/internal/serve"
	"pico/internal/tensor"
	"pico/internal/wire"
)

// weightSeed is the program's shared weight seed (the gateway default). The
// benchmark's -seed only makes inputs and arrivals.
const weightSeed = 1

// servedName is the model name the gateway serves the workload's model under.
const servedName = "m"

// stack is the system under test, in-process: loopback workers, one core
// each (the paper's one core per device), behind a default-configured gateway.
type stack struct {
	lc *runtime.LocalCluster
	gw *serve.Gateway
	// base is the gateway's http://host:port; url the workload's POST target.
	base, url string
	served    chan error
}

func startStack(w *workload, m *nn.Model) (*stack, error) {
	lc, err := runtime.StartLocalCluster(w.workers, w.speeds, runtime.WithParallelism(1))
	if err != nil {
		return nil, fmt.Errorf("local cluster: %w", err)
	}
	gw, err := serve.New(serve.Config{
		Cluster: w.profile(),
		Addrs:   lc.Addrs,
		Models:  map[string]*nn.Model{servedName: m},
		Seed:    weightSeed,
	})
	if err != nil {
		_ = lc.Close()
		return nil, fmt.Errorf("gateway: %w", err)
	}
	addr, err := gw.Listen("127.0.0.1:0")
	if err != nil {
		_ = lc.Close()
		return nil, err
	}
	s := &stack{lc: lc, gw: gw, base: "http://" + addr, served: make(chan error, 1)}
	s.url = fmt.Sprintf("%s/infer?model=%s&plan=pico", s.base, servedName)
	if w.quant {
		s.url += "&quant=1"
	}
	go func() { s.served <- gw.Serve() }()
	return s, nil
}

// stopGateway drains the gateway and returns how long that took. It must run
// before the cluster closes: LocalCluster.Close waits for every worker
// connection to end, and a live session holds them open forever.
func (s *stack) stopGateway() (time.Duration, error) {
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.gw.Shutdown(ctx)
	if serr := <-s.served; err == nil {
		err = serr
	}
	return time.Since(start), err
}

func (s *stack) close() error {
	_, err := s.stopGateway()
	if cerr := s.lc.Close(); err == nil {
		err = cerr
	}
	return err
}

// pool is the seeded inputs a run sends and the bytes a correct response to
// each must equal, computed by a local tensor.Executor before any timing.
type pool struct {
	inputs, want [][]byte
	// tensors and wantT are the same maps unencoded, for the direct pipeline.
	tensors, wantT []tensor.Tensor
}

const poolSize = 8

func buildPool(w *workload, m *nn.Model, seed int64) (*pool, error) {
	opts := []tensor.ExecutorOption{}
	if w.quant {
		opts = append(opts, tensor.WithQuantized())
	}
	exec, err := tensor.NewExecutor(m, weightSeed, opts...)
	if err != nil {
		return nil, err
	}
	p := &pool{}
	for i := 0; i < poolSize; i++ {
		in := tensor.RandomInput(m.Input, seed*poolSize+int64(i))
		var out tensor.Tensor
		if w.quant {
			q, err := exec.RunQ(in)
			if err != nil {
				return nil, err
			}
			out = q.Dequantize()
		} else if out, err = exec.Run(in); err != nil {
			return nil, err
		}
		p.inputs, p.want = append(p.inputs, encode(in)), append(p.want, encode(out))
		p.tensors, p.wantT = append(p.tensors, in), append(p.wantT, out)
	}
	return p, nil
}

// encode copies a tensor's wire bytes out of the codec's pooled buffer.
func encode(t tensor.Tensor) []byte {
	b := wire.EncodeTensor(t)
	out := append([]byte(nil), b...)
	wire.PutBuffer(b)
	return out
}
