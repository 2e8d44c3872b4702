package main

import (
	"bytes"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"net"

	"pico/internal/runtime"
	"pico/internal/wire"
)

func TestServeAndShutdown(t *testing.T) {
	var out, errBuf bytes.Buffer
	ready := make(chan *runtime.Worker, 1)
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-id", "test-node", "-quiet"}, &out, &errBuf, ready)
	}()
	var w *runtime.Worker
	select {
	case w = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never became ready")
	}
	// The daemon answers pings.
	conn, err := net.Dial("tcp", w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	wc := wire.NewConn(conn)
	defer wc.Close()
	if msg, err := wc.Recv(); err != nil || msg.Type != wire.MsgHello {
		t.Fatalf("hello: %v %v", msg, err)
	}
	if err := wc.Send(wire.MsgPing, nil, nil); err != nil {
		t.Fatal(err)
	}
	if msg, err := wc.Recv(); err != nil || msg.Type != wire.MsgPong {
		t.Fatalf("pong: %v %v", msg, err)
	}
	// Clean shutdown path (listener close, not signal). The worker waits
	// for live connections, so release ours first.
	if err := wc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case rc := <-done:
		if rc != 0 {
			t.Fatalf("rc = %d, stderr: %s", rc, errBuf.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not exit after Close")
	}
	if !strings.Contains(out.String(), "listening on") {
		t.Fatalf("stdout: %s", out.String())
	}
}

// TestSignalGracefulDrain delivers a real SIGTERM and expects the daemon to
// drain: announce the grace budget, sever the lingering connection once it
// expires, and exit 0. The handler is installed before ready fires, so the
// signal can never hit the default process-killing disposition.
func TestSignalGracefulDrain(t *testing.T) {
	var out, errBuf bytes.Buffer
	ready := make(chan *runtime.Worker, 1)
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-id", "drain-node", "-quiet", "-grace", "200ms"}, &out, &errBuf, ready)
	}()
	var w *runtime.Worker
	select {
	case w = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never became ready")
	}
	// Hold a connection open across the drain; the grace budget must expire
	// and sever it rather than hang the daemon forever.
	conn, err := net.Dial("tcp", w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	wc := wire.NewConn(conn)
	defer wc.Close()
	if msg, err := wc.Recv(); err != nil || msg.Type != wire.MsgHello {
		t.Fatalf("hello: %v %v", msg, err)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case rc := <-done:
		if rc != 0 {
			t.Fatalf("rc = %d, stderr: %s", rc, errBuf.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
	if s := out.String(); !strings.Contains(s, "draining in-flight work") || !strings.Contains(s, "drained") {
		t.Fatalf("stdout: %s", s)
	}
}

func TestBadAddress(t *testing.T) {
	var out, errBuf bytes.Buffer
	if rc := run([]string{"-addr", "256.0.0.1:99999"}, &out, &errBuf, nil); rc == 0 {
		t.Fatal("bad address accepted")
	}
}

func TestBadFlag(t *testing.T) {
	// A -speed that is not a finite MAC/s (or 0 for native) is a usage
	// error; the address would not listen (exit 1), so an accepted speed
	// cannot pass.
	for _, args := range [][]string{
		{"-nope"},
		{"-addr", "no-port", "-speed", "NaN"},
		{"-addr", "no-port", "-speed", "+Inf"},
		{"-addr", "no-port", "-speed", "-1"},
	} {
		var out, errBuf bytes.Buffer
		if rc := run(args, &out, &errBuf, nil); rc != 2 {
			t.Fatalf("%v: exit %d, want 2 (stderr %q)", args, rc, errBuf.String())
		}
	}
}
