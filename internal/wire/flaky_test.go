package wire

import (
	"net"
	"slices"
	"strings"
	"testing"
	"time"
)

// flakyPair returns a FlakyConn wrapping one end of an in-memory pipe plus
// the raw peer end.
func flakyPair(opts FlakyOptions) (*FlakyConn, net.Conn) {
	a, b := net.Pipe()
	return NewFlakyConn(a, opts), b
}

// drain consumes everything the peer receives until read error, reporting
// the byte count.
func drain(c net.Conn, done chan<- int) {
	total := 0
	buf := make([]byte, 256)
	for {
		n, err := c.Read(buf)
		total += n
		if err != nil {
			done <- total
			return
		}
	}
}

func TestFlakyConnCloseAfterWrites(t *testing.T) {
	fc, peer := flakyPair(FlakyOptions{Seed: 1, CloseAfterWrites: 2})
	got := make(chan int, 1)
	go drain(peer, got)
	for i := 0; i < 2; i++ {
		if _, err := fc.Write([]byte("abcd")); err != nil {
			t.Fatalf("write %d before the limit: %v", i, err)
		}
	}
	_, err := fc.Write([]byte("abcd"))
	if err == nil || !strings.Contains(err.Error(), "flaky conn closed") {
		t.Fatalf("write past the limit: want injected close, got %v", err)
	}
	// The conn is severed, not just erroring: the peer sees EOF having
	// received only the pre-limit bytes.
	if n := <-got; n != 8 {
		t.Fatalf("peer received %d bytes, want 8", n)
	}
	fc.mu.Lock()
	writes := fc.writes
	fc.mu.Unlock()
	if writes != 3 {
		t.Fatalf("writes counter %d, want 3", writes)
	}
}

func TestFlakyConnDropAfterWrites(t *testing.T) {
	fc, peer := flakyPair(FlakyOptions{Seed: 1, DropAfterWrites: 1})
	defer fc.Close()
	go func() {
		// First write passes through; later ones are blackholed.
		if _, err := fc.Write([]byte("live")); err != nil {
			t.Errorf("pre-limit write: %v", err)
		}
		for i := 0; i < 3; i++ {
			n, err := fc.Write([]byte("dropped"))
			if err != nil || n != len("dropped") {
				t.Errorf("blackholed write must pretend success, got n=%d err=%v", n, err)
			}
		}
	}()
	buf := make([]byte, 16)
	_ = peer.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := peer.Read(buf)
	if err != nil || string(buf[:n]) != "live" {
		t.Fatalf("pre-limit bytes must arrive, got %q err=%v", buf[:n], err)
	}
	// The peer must see silence after the limit — the hang scenario only
	// the reader's own deadline can detect.
	_ = peer.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if n, err := peer.Read(buf); err == nil {
		t.Fatalf("peer received %q after the drop limit", buf[:n])
	}
}

// TestFlakyConnDelayIsSeeded: two conns with the same seed inject the same
// delay, to the nanosecond, before every write — the wrapper is
// deterministic, so chaos runs reproduce. It reads the seeded decisions, not
// the wall clock.
func TestFlakyConnDelayIsSeeded(t *testing.T) {
	sample := func(seed int64) []time.Duration {
		fc, peer := flakyPair(FlakyOptions{Seed: seed, DelayProb: 0.5, Delay: time.Millisecond})
		defer peer.Close()
		defer fc.Close()
		var delays []time.Duration
		for i := 0; i < 64; i++ {
			delays = append(delays, fc.decide().sleep)
		}
		return delays
	}
	a, b := sample(42), sample(42)
	if !slices.Equal(a, b) {
		t.Fatalf("same seed, different delays:\n%v\n%v", a, b)
	}
	delayed := 0
	for _, d := range a {
		if d < 0 || d > time.Millisecond {
			t.Fatalf("delay %v outside (0, 1ms]", d)
		}
		if d > 0 {
			delayed++
		}
	}
	if delayed == 0 || delayed == len(a) {
		t.Fatalf("%d of %d writes delayed at DelayProb 0.5", delayed, len(a))
	}
	if slices.Equal(a, sample(43)) {
		t.Fatal("seeds 42 and 43 drew the same delays")
	}
}

func TestFlakyConnZeroOptionsPassthrough(t *testing.T) {
	if (FlakyOptions{}).Enabled() {
		t.Fatal("zero options must report disabled")
	}
	fc, peer := flakyPair(FlakyOptions{})
	got := make(chan int, 1)
	go drain(peer, got)
	for i := 0; i < 50; i++ {
		if _, err := fc.Write([]byte("0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	fc.Close()
	if n := <-got; n != 500 {
		t.Fatalf("peer received %d bytes, want 500", n)
	}
}
