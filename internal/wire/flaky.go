package wire

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// FlakyOptions configure a deterministic fault-injecting net.Conn wrapper for
// chaos tests and the fault-injection harness. Counters are in Write calls;
// Conn flushes exactly once per frame, so for frames that fit the 64 KiB
// write buffer one Write call is one frame on the wire (larger payloads add
// one call per buffer-sized chunk).
type FlakyOptions struct {
	// Seed feeds the wrapper's private RNG so delay jitter is reproducible.
	Seed int64
	// CloseAfterWrites severs the connection (both directions) after this
	// many Write calls — the crash scenario: the peer sees the stream die.
	// Zero disables.
	CloseAfterWrites int
	// DropAfterWrites blackholes every Write call after this many — the
	// hang scenario: writes "succeed" locally but nothing reaches the peer,
	// so the peer waits forever (until its own deadline fires). Zero
	// disables.
	DropAfterWrites int
	// DelayProb is the per-Write probability (0..1] of sleeping a random
	// duration up to Delay before writing — the slow-device / congested-WLAN
	// scenario.
	DelayProb float64
	// Delay bounds the injected per-write latency.
	Delay time.Duration
}

// Enabled reports whether any fault is armed.
func (o FlakyOptions) Enabled() bool {
	return o.CloseAfterWrites > 0 || o.DropAfterWrites > 0 || (o.DelayProb > 0 && o.Delay > 0)
}

// FlakyConn wraps a net.Conn with seeded, deterministic fault injection on
// the write path. Reads pass through untouched: a dropped or severed write
// manifests at the peer, which is where the runtime's recovery machinery
// (deadlines, redial, retry) must react.
type FlakyConn struct {
	net.Conn

	mu     sync.Mutex
	opts   FlakyOptions
	rng    *rand.Rand
	writes int
	dead   bool
}

// NewFlakyConn wraps c. The zero FlakyOptions injects nothing (the wrapper
// is then a transparent passthrough, see Enabled).
func NewFlakyConn(c net.Conn, opts FlakyOptions) *FlakyConn {
	return &FlakyConn{
		Conn: c,
		opts: opts,
		rng:  rand.New(rand.NewSource(opts.Seed)),
	}
}

// flakyWrite is the fault decision for one write: its number (from 1), the
// delay injected ahead of it, and whether it is dropped or severs the conn.
type flakyWrite struct {
	n          int
	sleep      time.Duration
	drop, kill bool
}

// decide counts the next write and draws its faults from the seeded source,
// so two conns with the same options decide the same faults write for write.
func (f *FlakyConn) decide() flakyWrite {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writes++
	w := flakyWrite{n: f.writes}
	if f.opts.DelayProb > 0 && f.opts.Delay > 0 && f.rng.Float64() < f.opts.DelayProb {
		w.sleep = time.Duration(f.rng.Int63n(int64(f.opts.Delay)) + 1)
	}
	w.drop = f.opts.DropAfterWrites > 0 && w.n > f.opts.DropAfterWrites
	w.kill = f.opts.CloseAfterWrites > 0 && w.n > f.opts.CloseAfterWrites && !f.dead
	if w.kill {
		f.dead = true
	}
	return w
}

func (f *FlakyConn) Write(b []byte) (int, error) {
	w := f.decide()
	if w.sleep > 0 {
		time.Sleep(w.sleep)
	}
	if w.kill {
		_ = f.Conn.Close()
		return 0, fmt.Errorf("wire: flaky conn closed after %d writes", w.n-1)
	}
	if w.drop {
		// Pretend success; the bytes vanish. The peer hangs until its
		// deadline fires.
		return len(b), nil
	}
	return f.Conn.Write(b)
}
