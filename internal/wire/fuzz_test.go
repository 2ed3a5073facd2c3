package wire

import (
	"bytes"
	"testing"
)

// FuzzUpdatePayloads feeds arbitrary payloads to the three decoders of
// update entries: DecodeUpdate, DecodeSync (also the durability plane's
// WAL record decoder) and DecodeRestore. None may panic, and a payload any
// of them accepts must re-encode to exactly the bytes it came from — the
// decoders accept only what the encoders write. The corpus is seeded with
// the golden frames' payloads, whose shape the fuzz geometry admits.
func FuzzUpdatePayloads(f *testing.F) {
	g := Geometry{Tables: 3, Reduction: 2, Dim: 2, TableRows: 16, MaxBatch: 4}
	for _, gf := range goldenFrames() {
		f.Add(gf.got[HeaderBytes:])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var s UpdateScratch
		if ups, budget, err := DecodeUpdate(payload, g, &s); err == nil {
			if re := AppendUpdate(nil, 0, budget, ups)[HeaderBytes:]; !bytes.Equal(re, payload) {
				t.Fatalf("UPDATE payload %x re-encodes to %x", payload, re)
			}
		}
		if seq, ups, err := DecodeSync(payload, g, &s); err == nil {
			if re := AppendSync(nil, 0, seq, ups)[HeaderBytes:]; !bytes.Equal(re, payload) {
				t.Fatalf("SYNC payload %x re-encodes to %x", payload, re)
			}
		}
		if seq, commit, up, err := DecodeRestore(payload, g, &s); err == nil {
			if re := AppendRestore(nil, 0, seq, commit, up.Table, up.Rows, up.Grads)[HeaderBytes:]; !bytes.Equal(re, payload) {
				t.Fatalf("RESTORE payload %x re-encodes to %x", payload, re)
			}
		}
	})
}
