// Package gate is the one shutdown gate of the serving layers: admit
// operations until closed, drain the admitted ones, then tear down once.
// serve.Server, cluster.Router and runtime.Deployment each hold one Gate.
package gate

import "sync"

// Gate admits operations until Close begins; the zero value is open.
// Every operation Enter admitted must call Exit exactly once.
type Gate struct {
	mu       sync.Mutex // orders every Enter against Close setting closed
	closed   bool
	inflight sync.WaitGroup
	once     sync.Once
	err      error // the teardown's result, returned to every Close
}

// Enter admits one operation and reports true, or reports false once Close
// has begun. An admitted operation holds Close's drain until its Exit.
func (g *Gate) Enter() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return false
	}
	g.inflight.Add(1)
	return true
}

// Exit ends an operation Enter admitted.
func (g *Gate) Exit() { g.inflight.Done() }

// Close stops admitting operations, waits for every admitted one to Exit,
// and then runs teardown (nil for none), which must not call Close. Only
// the first call runs it; every call, concurrent ones included, returns
// only after it has finished, with its error.
func (g *Gate) Close(teardown func() error) error {
	g.once.Do(func() {
		g.mu.Lock()
		g.closed = true
		g.mu.Unlock()
		g.inflight.Wait()
		if teardown != nil {
			g.err = teardown()
		}
	})
	return g.err
}
