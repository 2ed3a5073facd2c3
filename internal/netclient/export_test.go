package netclient

import (
	"time"

	"tensordimm/internal/wire"
)

// DialFrameLimit is Dial with the client's frame limit lowered from
// wire.DefaultMaxFrameBytes to limit.
func DialFrameLimit(addr string, cfg Config, limit int) (*Client, error) {
	return dial(addr, cfg, limit, wire.HandshakeTimeout)
}

// DialHandshake is Dial with the handshake bound shortened from
// wire.HandshakeTimeout to d, for Dial and every later redial.
func DialHandshake(addr string, cfg Config, d time.Duration) (*Client, error) {
	return dial(addr, cfg, wire.DefaultMaxFrameBytes, d)
}

// Tombstones counts the abandoned request ids, over every live
// connection, whose late response has not arrived yet.
func (c *Client) Tombstones() int {
	n := 0
	for _, slot := range c.slots {
		if cc := slot.cur.Load(); cc != nil {
			cc.pmu.Lock()
			n += len(cc.abandoned)
			cc.pmu.Unlock()
		}
	}
	return n
}
