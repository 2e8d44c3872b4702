package runtime

import (
	"fmt"
	"sync"
	"time"

	"pico/internal/tensor"
	"pico/internal/wire"
)

// workerClient is one coordinator→worker connection speaking wire protocol
// v2. Requests carry ids; a single reader goroutine demultiplexes response
// frames to a pending-call map, so many requests can be in flight on one
// connection concurrently — the transport-side requirement for overlapping
// one task's sends with another task's remote compute.
type workerClient struct {
	id   string
	addr string
	conn *wire.Conn

	mu      sync.Mutex
	nextReq uint64
	pending map[uint64]chan *wire.Message
	err     error // set once the reader exits; fails all later calls
	closed  bool
	done    chan struct{} // closed when the reader goroutine exits
}

// dialWorker connects, consumes the hello frame, and starts the response
// reader. The hello read is deadline-bounded so a peer that accepts but
// never speaks cannot hang connection setup.
func dialWorker(addr string) (*workerClient, error) {
	conn, err := dialTCP(addr)
	if err != nil {
		return nil, err
	}
	_ = conn.SetReadDeadline(time.Now().Add(dialTimeout))
	msg, err := conn.Recv()
	_ = conn.SetReadDeadline(time.Time{})
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("runtime: hello from %s: %w", addr, err)
	}
	if msg.Type != wire.MsgHello {
		_ = conn.Close()
		return nil, fmt.Errorf("runtime: expected hello from %s, got %v", addr, msg.Type)
	}
	var hello wire.HelloHeader
	if err := msg.DecodeHeader(&hello); err != nil {
		_ = conn.Close()
		return nil, err
	}
	if hello.Version != wire.ProtocolVersion {
		_ = conn.Close()
		return nil, fmt.Errorf("runtime: %s speaks protocol %d, want %d", addr, hello.Version, wire.ProtocolVersion)
	}
	wc := &workerClient{
		id:      hello.NodeID,
		addr:    addr,
		conn:    conn,
		pending: make(map[uint64]chan *wire.Message),
		done:    make(chan struct{}),
	}
	go wc.readLoop()
	return wc, nil
}

// readLoop is the connection's single demultiplexing reader: every response
// frame is routed to the pending call that registered its request id. On
// connection loss it fails all pending and future calls.
func (wc *workerClient) readLoop() {
	for {
		msg, err := wc.conn.Recv()
		if err != nil {
			wc.mu.Lock()
			if wc.err == nil {
				if wc.closed {
					wc.err = errClosed
				} else {
					wc.err = fmt.Errorf("runtime: connection to %s lost: %w", wc.id, err)
				}
			}
			pending := wc.pending
			wc.pending = nil
			wc.mu.Unlock()
			for _, ch := range pending {
				close(ch)
			}
			close(wc.done)
			return
		}
		wc.mu.Lock()
		ch := wc.pending[msg.ReqID]
		delete(wc.pending, msg.ReqID)
		wc.mu.Unlock()
		if ch == nil {
			// Response to a cancelled or unknown request; drop it.
			wire.PutBuffer(msg.Payload)
			continue
		}
		ch <- msg // buffered (cap 1): the reader never blocks on a caller
	}
}

// call is one in-flight request awaiting its response frame.
type call struct {
	wc *workerClient
	id uint64
	ch chan *wire.Message
	// dtype is the precision an exec call sent its tile in; the result must
	// come back in the same one.
	dtype tensor.DType
}

// register allocates a request id and its response slot.
func (wc *workerClient) register() (uint64, *call, error) {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if wc.err != nil {
		return 0, nil, wc.err
	}
	wc.nextReq++
	id := wc.nextReq
	ch := make(chan *wire.Message, 1)
	wc.pending[id] = ch
	return id, &call{wc: wc, id: id, ch: ch}, nil
}

// cancel abandons a registered request (failed send or expired deadline); a
// late response frame for the id is dropped by the reader.
func (wc *workerClient) cancel(id uint64) {
	wc.mu.Lock()
	delete(wc.pending, id)
	wc.mu.Unlock()
}

// fail marks the connection terminally broken and severs it, which makes the
// reader exit and wake every pending call. Any error on the send path goes
// through here: a half-written frame has already desynchronized the stream,
// so the connection must never carry another request.
func (wc *workerClient) fail(err error) {
	wc.mu.Lock()
	if wc.err == nil && err != nil {
		wc.err = err
	}
	wc.mu.Unlock()
	_ = wc.conn.Close()
}

// alive reports whether the connection has not failed yet.
func (wc *workerClient) alive() bool {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	return wc.err == nil
}

// readError returns the terminal connection error (the reader sets it
// before failing any pending call).
func (wc *workerClient) readError() error {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if wc.err != nil {
		return wc.err
	}
	return fmt.Errorf("runtime: connection to %s lost", wc.id)
}

// wait blocks for the response frame (or connection loss).
func (c *call) wait() (*wire.Message, error) {
	msg, ok := <-c.ch
	if !ok {
		return nil, c.wc.readError()
	}
	return msg, nil
}

// waitTimeout blocks for the response frame, the connection dying, or the
// deadline — whichever comes first. A deadline hit is treated as the
// connection being wedged (a worker that still computes will answer a fresh
// connection after redial): the pending slot is cancelled so a late frame is
// dropped, and the connection is failed so every other pending call wakes
// immediately instead of each burning its own full deadline. d <= 0 waits
// forever.
func (c *call) waitTimeout(d time.Duration) (*wire.Message, error) {
	if d <= 0 {
		return c.wait()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case msg, ok := <-c.ch:
		if !ok {
			return nil, c.wc.readError()
		}
		return msg, nil
	case <-timer.C:
		c.wc.cancel(c.id)
		err := fmt.Errorf("runtime: %s: no response within %v: %w", c.wc.id, d, errDeadline)
		c.wc.fail(err)
		return nil, err
	}
}

// errDeadline marks exec deadline expiries for fault classification.
var errDeadline = fmt.Errorf("exec deadline exceeded")

// roundTrip issues one JSON-header control request and waits for its
// response, bounded by the control deadline.
func (wc *workerClient) roundTrip(t wire.MsgType, header any, payload []byte) (*wire.Message, error) {
	id, c, err := wc.register()
	if err != nil {
		return nil, err
	}
	if err := wc.conn.SendRequest(t, id, header, payload); err != nil {
		wc.cancel(id)
		wc.fail(fmt.Errorf("runtime: send %v to %s: %w", t, wc.id, err))
		return nil, err
	}
	return c.waitTimeout(controlTimeout)
}

// controlTimeout bounds control round trips (load-model, ping). Model
// construction on a throttled worker is slow but not minutes-slow.
const controlTimeout = time.Minute

func (wc *workerClient) close() error {
	wc.mu.Lock()
	if wc.closed {
		wc.mu.Unlock()
		return nil
	}
	wc.closed = true
	wc.mu.Unlock()
	_ = wc.conn.Send(wire.MsgShutdown, nil, nil)
	err := wc.conn.Close()
	<-wc.done
	return err
}

// loadModel ships a model. Non-nil scales — the session's boundary scales,
// calibrated once by the coordinator — make it an int8 load: the worker
// validates the vector, presets it and can serve quantized exec requests
// without ever calibrating.
func (wc *workerClient) loadModel(spec wire.ModelSpec, seed int64, scales []float32) error {
	msg, err := wc.roundTrip(wire.MsgLoadModel, wire.LoadModelHeader{Model: spec, Seed: seed, Quant: scales != nil, Scales: scales}, nil)
	if err != nil {
		return err
	}
	defer wire.PutBuffer(msg.Payload)
	if msg.Type == wire.MsgError {
		var eh wire.ErrorHeader
		_ = msg.DecodeHeader(&eh)
		return fmt.Errorf("runtime: %s rejected model: %s", wc.id, eh.Message)
	}
	if msg.Type != wire.MsgPong {
		return fmt.Errorf("runtime: %s: unexpected %v after load", wc.id, msg.Type)
	}
	return nil
}

// startExec serializes and sends one tile request without waiting for the
// result; the returned call resolves to the computed tile. The header's tile
// extent, dtype and scale are taken from the tile itself, whose payload is
// its raw elements (an int8 tile is a quarter of the float32 size for the
// same extent). The tile is fully written to the wire before startExec
// returns, so the caller may recycle it immediately.
func (wc *workerClient) startExec(hdr wire.ExecHeader, tile tensor.FMap) (*call, error) {
	id, c, err := wc.register()
	if err != nil {
		return nil, fmt.Errorf("runtime: exec to %s: %w", wc.id, err)
	}
	c.dtype = tile.DType
	hdr.TileC, hdr.TileH, hdr.TileW = tile.C, tile.H, tile.W
	hdr.DType, hdr.Scale = int(tile.DType), tile.Scale
	payload, pooled := wire.MapBytes(tile)
	err = wc.conn.SendExec(id, &hdr, payload)
	if pooled {
		wire.PutBuffer(payload)
	}
	if err != nil {
		// A failed or partial send leaves an undefined number of frame
		// bytes on the stream; cancelling the slot is not enough — the
		// connection itself is done.
		wc.cancel(id)
		wc.fail(fmt.Errorf("runtime: exec send to %s: %w", wc.id, err))
		return nil, fmt.Errorf("runtime: exec to %s: %w", wc.id, err)
	}
	return c, nil
}

// waitExec resolves an exec call to its output tile — in the precision the
// request was sent in, an int8 tile's scale coming from the result header —
// and the result header with the worker's compute and kernel seconds.
// transient reports whether the failure is transport-attributable (timeout,
// lost connection) and therefore worth retrying on a healthy replica;
// worker-reported errors are deterministic and come back with transient ==
// false.
func (c *call) waitExec(d time.Duration) (out tensor.FMap, rh wire.ExecResultHeader, transient bool, err error) {
	msg, err := c.waitTimeout(d)
	if err != nil {
		return tensor.FMap{}, rh, true, fmt.Errorf("runtime: exec result from %s: %w", c.wc.id, err)
	}
	defer wire.PutBuffer(msg.Payload)
	switch msg.Type {
	case wire.MsgExecResult:
		if err := msg.DecodeExecResult(&rh); err != nil {
			return tensor.FMap{}, rh, false, err
		}
		if rh.DType != int(c.dtype) {
			return tensor.FMap{}, rh, false, fmt.Errorf("runtime: %s answered a %v exec with dtype %d", c.wc.id, c.dtype, rh.DType)
		}
		out, err := wire.DecodeMap(rh.DType, rh.C, rh.H, rh.W, rh.Scale, msg.Payload)
		return out, rh, false, err
	case wire.MsgError:
		var eh wire.ErrorHeader
		_ = msg.DecodeHeader(&eh)
		return tensor.FMap{}, rh, false, fmt.Errorf("runtime: %s: %s", c.wc.id, eh.Message)
	default:
		return tensor.FMap{}, rh, false, fmt.Errorf("runtime: %s: unexpected %v", c.wc.id, msg.Type)
	}
}
