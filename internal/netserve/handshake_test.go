package netserve_test

import (
	"io"
	"net"
	"testing"
	"time"

	"tensordimm/internal/netclient"
	"tensordimm/internal/netserve"
)

// TestSilentClientDroppedAtHandshakeDeadline pins the server half of the
// handshake bound: a connection that never sends its hello is closed once
// the bound lapses, not held (with its reader goroutine) until the server
// closes, and the server keeps serving clients that do speak.
func TestSilentClientDroppedAtHandshakeDeadline(t *testing.T) {
	const bound = 200 * time.Millisecond
	srv, err := netserve.NewHandshake(newStub(), netserve.Config{}, bound)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	start := time.Now()
	nc.SetReadDeadline(start.Add(10 * time.Second))
	if n, err := io.Copy(io.Discard, nc); err != nil || n != 0 {
		t.Fatalf("silent connection: read %d B, %v; want a close with no hello", n, err)
	}
	if held := time.Since(start); held < bound/2 || held > bound+2*time.Second {
		t.Fatalf("silent connection closed after %v, want about the %v bound", held, bound)
	}

	cl := dialClient(t, l.Addr().String(), netclient.Config{})
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping from a speaking client: %v", err)
	}
}
