package faultnet_test

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"tensordimm/internal/faultnet"
)

// pipeServer starts a wrapped echo listener and returns its address and
// injector.
func pipeServer(t *testing.T) (string, *faultnet.Injector) {
	t.Helper()
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	in := faultnet.NewInjector()
	l := faultnet.Wrap(raw, in)
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			nc, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				io.Copy(nc, nc)
			}()
		}
	}()
	return raw.Addr().String(), in
}

func TestPassThroughEcho(t *testing.T) {
	addr, in := pipeServer(t)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(nc, buf); err != nil || string(buf) != "hello" {
		t.Fatalf("echo %q err %v", buf, err)
	}
	if in.Live() != 1 {
		t.Fatalf("Live() = %d, want 1", in.Live())
	}
}

func TestReadDelay(t *testing.T) {
	addr, in := pipeServer(t)
	in.SetReadDelay(50 * time.Millisecond)
	// The server's first Read sleeps on entry, which may be before Dial
	// returns, so the clock starts before the connection exists.
	start := time.Now()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.Write([]byte("x"))
	buf := make([]byte, 1)
	if _, err := io.ReadFull(nc, buf); err != nil {
		t.Fatal(err)
	}
	// The server's read of our byte waits at least one injected delay.
	if el := time.Since(start); el < 50*time.Millisecond {
		t.Fatalf("echo in %v, want >= 50ms of injected latency", el)
	}
	in.SetReadDelay(0)
}

func TestResetKillsLiveConns(t *testing.T) {
	addr, in := pipeServer(t)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.Write([]byte("x"))
	buf := make([]byte, 1)
	if _, err := io.ReadFull(nc, buf); err != nil {
		t.Fatal(err)
	}
	in.Reset()
	// The peer observes the cut: subsequent reads fail (RST or EOF).
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := nc.Read(buf); err == nil {
		t.Fatal("read succeeded after Reset")
	}
	if in.Live() != 0 {
		t.Fatalf("Live() = %d after Reset, want 0", in.Live())
	}
}

func TestDropRefusesNewConns(t *testing.T) {
	addr, in := pipeServer(t)
	in.Drop(true)
	nc, err := net.Dial("tcp", addr)
	if err == nil {
		// The TCP handshake may complete (kernel backlog) but the wrapped
		// accept closes it immediately: the first read fails.
		nc.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, 1)
		if _, rerr := nc.Read(buf); rerr == nil {
			t.Fatal("dropped listener served a connection")
		}
		nc.Close()
	}
	in.Drop(false)
	// Disarmed: connections flow again.
	nc, err = net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.Write([]byte("y"))
	buf := make([]byte, 1)
	if _, err := io.ReadFull(nc, buf); err != nil || buf[0] != 'y' {
		t.Fatalf("echo after undrop: %q err %v", buf, err)
	}
}

func TestTruncateCutsMidStream(t *testing.T) {
	addr, in := pipeServer(t)
	in.SetTruncateAfter(3)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.Write([]byte("abcdef"))
	// The server reads at most 3 bytes before its side is hard-closed, so
	// we can never receive all 6 back.
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	got := 0
	buf := make([]byte, 6)
	for got < 6 {
		n, err := nc.Read(buf[got:])
		got += n
		if err != nil {
			break
		}
	}
	if got > 3 {
		t.Fatalf("received %d bytes through a 3-byte truncation", got)
	}
	var ne net.Error
	if in.Live() != 0 && !errors.As(err, &ne) {
		t.Fatalf("truncated conn still live (Live %d)", in.Live())
	}
}
