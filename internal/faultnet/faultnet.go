// Package faultnet wraps net.Listener / net.Conn with switchable fault
// injection for network tests: added read latency, byte truncation,
// connection drops, and hard resets. The failover suites use it to
// simulate a replica crashing mid-traffic without spawning and killing
// real processes, and any future network test can reuse it.
//
// An Injector is shared by a listener and every connection it accepts;
// flipping its knobs affects live connections immediately. All methods
// are safe for concurrent use.
package faultnet

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Injector holds the fault knobs for one wrapped listener and its
// connections. The zero value injects nothing.
type Injector struct {
	delay    atomic.Int64 // per-Read added latency, nanoseconds
	truncAt  atomic.Int64 // close each conn after this many bytes read (0 = off)
	dropping atomic.Bool  // refuse new conns and fail reads/writes

	mu    sync.Mutex
	conns map[*Conn]struct{}
}

// NewInjector returns an injector with no faults armed.
func NewInjector() *Injector {
	return &Injector{conns: make(map[*Conn]struct{})}
}

// SetReadDelay arms (or with 0 disarms) an added latency before every
// Read on every wrapped connection — slow-network and hedging tests.
func (in *Injector) SetReadDelay(d time.Duration) { in.delay.Store(int64(d)) }

// SetTruncateAfter arms byte truncation: each connection is hard-closed
// after reading n more bytes (counted per connection from its current
// position), so a peer observes a mid-frame cut. 0 disarms for
// connections that have not yet hit their limit.
func (in *Injector) SetTruncateAfter(n int64) {
	in.truncAt.Store(n)
	in.mu.Lock()
	for c := range in.conns {
		c.truncLeft.Store(n)
	}
	in.mu.Unlock()
}

// Drop arms or disarms the dropped state: while dropped, new connections
// are refused and existing ones fail on their next Read or Write.
// Arming also resets every live connection immediately.
func (in *Injector) Drop(on bool) {
	in.dropping.Store(on)
	if on {
		in.Reset()
	}
}

// Reset hard-closes every live wrapped connection (RST where the
// platform allows, via SO_LINGER 0) without touching the armed state —
// the "process was SIGKILLed" simulation: peers see connection resets,
// not graceful FINs.
func (in *Injector) Reset() {
	in.mu.Lock()
	conns := make([]*Conn, 0, len(in.conns))
	for c := range in.conns {
		conns = append(conns, c)
	}
	in.mu.Unlock()
	for _, c := range conns {
		c.reset()
	}
}

// track registers a connection for Reset/SetTruncateAfter fan-out.
func (in *Injector) track(c *Conn) {
	in.mu.Lock()
	in.conns[c] = struct{}{}
	in.mu.Unlock()
}

// forget drops a closed connection from the registry.
func (in *Injector) forget(c *Conn) {
	in.mu.Lock()
	delete(in.conns, c)
	in.mu.Unlock()
}

// Listener wraps an accept loop with the injector's faults.
type Listener struct {
	net.Listener
	in *Injector
}

// Wrap returns l with in's faults applied to it and every connection it
// accepts.
func Wrap(l net.Listener, in *Injector) *Listener {
	return &Listener{Listener: l, in: in}
}

// Accept implements net.Listener. While the injector is dropped,
// accepted connections are closed immediately — the peer sees a refused
// or instantly-reset connection, as with a dead process.
func (l *Listener) Accept() (net.Conn, error) {
	for {
		nc, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if l.in.dropping.Load() {
			hardClose(nc)
			continue
		}
		c := &Conn{Conn: nc, in: l.in}
		c.truncLeft.Store(l.in.truncAt.Load())
		l.in.track(c)
		return c, nil
	}
}

// Conn is one fault-injected connection.
type Conn struct {
	net.Conn
	in        *Injector
	truncLeft atomic.Int64 // bytes until hard close; <= 0 with truncAt armed means cut
	closed    atomic.Bool
}

// Read implements net.Conn, applying delay, drop, and truncation faults.
func (c *Conn) Read(b []byte) (int, error) {
	if d := c.in.delay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	if c.in.dropping.Load() {
		c.reset()
		return 0, net.ErrClosed
	}
	if c.in.truncAt.Load() > 0 {
		left := c.truncLeft.Load()
		if left <= 0 {
			c.reset()
			return 0, net.ErrClosed
		}
		if int64(len(b)) > left {
			b = b[:left]
		}
		n, err := c.Conn.Read(b)
		if c.truncLeft.Add(-int64(n)) <= 0 {
			c.reset()
			if err == nil {
				err = net.ErrClosed
			}
		}
		return n, err
	}
	return c.Conn.Read(b)
}

// Write implements net.Conn, failing while the injector is dropped.
func (c *Conn) Write(b []byte) (int, error) {
	if c.in.dropping.Load() {
		c.reset()
		return 0, net.ErrClosed
	}
	return c.Conn.Write(b)
}

// Close implements net.Conn.
func (c *Conn) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.in.forget(c)
	return c.Conn.Close()
}

// reset hard-closes the connection so the peer sees an RST, not a FIN.
func (c *Conn) reset() {
	if c.closed.Swap(true) {
		return
	}
	c.in.forget(c)
	hardClose(c.Conn)
}

// hardClose closes nc with SO_LINGER 0 when it is a TCP connection, so
// the close goes out as a reset — what a killed process's kernel sends
// for data arriving after the process died.
func hardClose(nc net.Conn) {
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	nc.Close()
}
