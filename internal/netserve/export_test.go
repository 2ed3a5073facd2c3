package netserve

import "time"

// NewHandshake is New with the handshake bound shortened from
// wire.HandshakeTimeout to d.
func NewHandshake(b Backend, cfg Config, d time.Duration) (*Server, error) {
	s, err := New(b, cfg)
	if err == nil {
		s.handshake = d
	}
	return s, err
}
