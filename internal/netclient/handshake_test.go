package netclient_test

import (
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tensordimm/internal/netclient"
	"tensordimm/internal/netserve"
	"tensordimm/internal/wire"
)

// testHandshake is the shortened handshake bound the mute-server tests
// dial with, so each runs in well under a second.
const testHandshake = 200 * time.Millisecond

// TestDialFailsAgainstMuteServer pins the client half of the handshake
// bound: a listener that accepts and never writes makes Dial fail with a
// handshake deadline error once the bound lapses, and the client hangs up
// the mute connection rather than leaving it open.
func TestDialFailsAgainstMuteServer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if nc, err := l.Accept(); err == nil {
			accepted <- nc
		}
	}()

	type result struct {
		err  error
		took time.Duration
	}
	res := make(chan result, 1)
	go func() {
		start := time.Now()
		cl, err := netclient.DialHandshake(l.Addr().String(), netclient.Config{}, testHandshake)
		if cl != nil {
			cl.Close()
		}
		res <- result{err, time.Since(start)}
	}()
	var r result
	select {
	case r = <-res:
	case <-time.After(10 * time.Second):
		t.Fatal("Dial still blocked against a mute server after 10 s")
	}
	if r.err == nil {
		t.Fatal("Dial succeeded against a server that never answered")
	}
	if !strings.Contains(r.err.Error(), "handshake") || !errors.Is(r.err, os.ErrDeadlineExceeded) {
		t.Fatalf("Dial error %v, want a handshake deadline error", r.err)
	}
	if r.took < testHandshake || r.took > testHandshake+2*time.Second {
		t.Fatalf("Dial failed after %v, want the %v bound plus slack", r.took, testHandshake)
	}

	nc := <-accepted
	defer nc.Close()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, nc); err != nil {
		t.Fatalf("mute connection not closed by the client: %v", err)
	}
}

// TestSupervisorRecoversPastMuteServer pins that a supervisor's redial
// loop cannot be wedged: after a server restart its first redial lands on
// an endpoint that accepts and never answers, which it gives up at the
// handshake bound; it then backs off, the next attempts reach a real
// server, OnUp fires and the client is healthy again.
func TestSupervisorRecoversPastMuteServer(t *testing.T) {
	addr := freeAddr(t)
	srv := serveAt(t, &echoBackend{}, addr, netserve.Config{})
	var ups, downs atomic.Int64
	cl, err := netclient.DialHandshake(addr, netclient.Config{
		ReconnectMin: 5 * time.Millisecond,
		ReconnectMax: 20 * time.Millisecond,
		OnUp:         func(wire.Hello) { ups.Add(1) },
		OnDown:       func(error) { downs.Add(1) },
	}, testHandshake)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	srv.Close()
	waitCond(t, 5*time.Second, "OnDown", func() bool { return downs.Load() >= 1 })

	// A mute endpoint takes the address and swallows the next redial.
	var mute net.Listener
	var listened time.Time // no redial can reach the mute endpoint before this
	waitCond(t, 5*time.Second, "rebinding "+addr, func() bool {
		listened = time.Now()
		mute, err = net.Listen("tcp", addr)
		return err == nil
	})
	mute.(*net.TCPListener).SetDeadline(time.Now().Add(5 * time.Second))
	nc, err := mute.Accept()
	mute.Close()
	if err != nil {
		t.Fatalf("no redial reached the mute endpoint: %v", err)
	}
	defer nc.Close()

	// The supervisor hangs up at the bound instead of waiting forever.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, nc); err != nil {
		t.Fatalf("supervisor still holds the mute connection: %v", err)
	}
	if held := time.Since(listened); held < testHandshake/2 || held > testHandshake+2*time.Second {
		t.Fatalf("mute connection dropped after %v, want about the %v bound", held, testHandshake)
	}
	if ups.Load() != 0 || cl.Healthy() {
		t.Fatal("client up against a server that never answered")
	}

	serveAt(t, &echoBackend{}, addr, netserve.Config{})
	waitCond(t, 5*time.Second, "OnUp past the mute server", func() bool { return ups.Load() >= 1 && cl.Healthy() })
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping after recovery: %v", err)
	}
}
