package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
)

// written is one frame as it appeared on the stream a Writer produced.
type written struct {
	op    Op
	size  int      // wire bytes, header included
	count int      // sub-frames of a BATCH, 0 for a plain frame
	subs  [][]byte // the frames it carried, re-encoded byte for byte
}

// readStream parses a Writer's output back into frames, unwrapping every
// BATCH through DecodeBatch.
func readStream(t *testing.T, stream []byte) []written {
	t.Helper()
	r := bytes.NewReader(stream)
	var out []written
	for r.Len() > 0 {
		before := r.Len()
		op, id, payload, _, err := ReadFrame(r, nil, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", len(out), err)
		}
		w := written{op: op, size: before - r.Len()}
		if op != OpBatch {
			w.subs = [][]byte{AppendFrame(nil, op, id, payload)}
			out = append(out, w)
			continue
		}
		it, err := DecodeBatch(payload)
		if err != nil {
			t.Fatalf("frame %d: %v", len(out), err)
		}
		w.count = it.Count()
		for {
			sop, sid, sp, ok := it.Next()
			if !ok {
				break
			}
			w.subs = append(w.subs, AppendFrame(nil, sop, sid, sp))
		}
		if err := it.Err(); err != nil {
			t.Fatalf("frame %d: %v", len(out), err)
		}
		out = append(out, w)
	}
	return out
}

// pings returns n PING frames with ids 1..n.
func pings(n int) [][]byte {
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = AppendFrame(nil, OpPing, uint64(i+1), nil)
	}
	return frames
}

// flushAll appends frames to a fresh Writer with the given limits and
// flushes them into one stream.
func flushAll(t *testing.T, ownMax, peerMax int, frames [][]byte) (stream []byte, n, batches, batched int) {
	t.Helper()
	w := NewWriter(ownMax, peerMax)
	for _, f := range frames {
		w.Append(f)
	}
	var buf bytes.Buffer
	n, batches, batched, err := w.Flush(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), n, batches, batched
}

func TestWriterLoneFrameGoesOutPlain(t *testing.T) {
	f := AppendFrame(nil, OpPing, 7, nil)
	stream, n, batches, batched := flushAll(t, DefaultMaxFrameBytes, DefaultMaxFrameBytes, [][]byte{f})
	if !bytes.Equal(stream, f) || n != 1 || batches != 0 || batched != 0 {
		t.Fatalf("lone frame flushed as %x (%d frames, %d batches of %d), want it plain: %x", stream, n, batches, batched, f)
	}
}

func TestWriterSplitsAtSubFrameCap(t *testing.T) {
	frames := pings(MaxBatchSubFrames + 1)
	stream, n, batches, batched := flushAll(t, DefaultMaxFrameBytes, DefaultMaxFrameBytes, frames)
	out := readStream(t, stream)
	if len(out) != 2 || out[0].count != MaxBatchSubFrames || out[1].op != OpPing {
		t.Fatalf("%d frames flushed as %d: want one BATCH of %d plus a plain frame", len(frames), len(out), MaxBatchSubFrames)
	}
	if n != len(frames) || batches != 1 || batched != MaxBatchSubFrames {
		t.Fatalf("Flush reported %d frames, %d batches of %d; want %d, 1, %d", n, batches, batched, len(frames), MaxBatchSubFrames)
	}
}

func TestWriterSplitsAtByteCap(t *testing.T) {
	const limit = 200
	small := func(id uint64) []byte { return AppendFrame(nil, OpError, id, make([]byte, 37)) } // 50 B
	big := AppendFrame(nil, OpEmbedResp, 99, make([]byte, 3*limit))
	frames := [][]byte{small(1), small(2), small(3), small(4), small(5), small(6), small(7), big, small(8)}
	// The peer's limit is the smaller one here; the cap is the minimum.
	stream, _, batches, _ := flushAll(t, DefaultMaxFrameBytes, limit, frames)
	out := readStream(t, stream)
	var got [][]byte
	for i, w := range out {
		if w.op == OpBatch && w.size > limit {
			t.Fatalf("BATCH %d is %d B, above the %d B cap", i, w.size, limit)
		}
		got = append(got, w.subs...)
	}
	if batches < 2 {
		t.Fatalf("%d BATCHes, want the small frames split over several", batches)
	}
	var lone *written
	for i := range out {
		if out[i].op == OpEmbedResp {
			lone = &out[i]
		}
	}
	if lone == nil || lone.size != len(big) {
		t.Fatalf("the over-cap frame did not go out plain: %+v", out)
	}
	if len(got) != len(frames) {
		t.Fatalf("%d frames read back, want %d", len(got), len(frames))
	}
}

// TestWriterStreamRoundTrip is the byte-identity property: random frames
// under random caps read back through ReadFrame and DecodeBatch are the
// appended frames, in order, byte for byte, over several flushes.
func TestWriterStreamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ops := []Op{OpEmbed, OpEmbedResp, OpUpdate, OpPing, OpError, OpSync}
	for trial := 0; trial < 100; trial++ {
		limit := 64 + rng.Intn(4096)
		w := NewWriter(limit+rng.Intn(2), limit+rng.Intn(2))
		var want [][]byte
		var buf bytes.Buffer
		for flush := 0; flush < 3; flush++ {
			for i := rng.Intn(200); i > 0; i-- {
				p := make([]byte, rng.Intn(300))
				rng.Read(p)
				f := AppendFrame(nil, ops[rng.Intn(len(ops))], rng.Uint64(), p)
				w.Append(f)
				want = append(want, f)
			}
			if _, _, _, err := w.Flush(&buf); err != nil {
				t.Fatal(err)
			}
		}
		var got [][]byte
		for _, f := range readStream(t, buf.Bytes()) {
			got = append(got, f.subs...)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d frames read back, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("trial %d: frame %d differs after the round trip", trial, i)
			}
		}
	}
}

// failingWriter accepts nothing.
type failingWriter struct{ err error }

func (f failingWriter) Write([]byte) (int, error) { return 0, f.err }

func TestWriterErrorIsSticky(t *testing.T) {
	boom := errors.New("boom")
	w := NewWriter(DefaultMaxFrameBytes, DefaultMaxFrameBytes)
	w.Append(AppendFrame(nil, OpPing, 1, nil))
	if _, _, _, err := w.Flush(failingWriter{boom}); !errors.Is(err, boom) {
		t.Fatalf("first Flush: %v, want %v", err, boom)
	}
	w.Append(AppendFrame(nil, OpPing, 2, nil))
	var buf bytes.Buffer
	n, _, _, err := w.Flush(&buf)
	if !errors.Is(err, boom) || n != 0 || buf.Len() != 0 {
		t.Fatalf("Flush after a failed write: %d frames, %d B, err %v; want nothing and %v", n, buf.Len(), err, boom)
	}
}

func TestWriterDoorbellLatches(t *testing.T) {
	w := NewWriter(DefaultMaxFrameBytes, DefaultMaxFrameBytes)
	select {
	case <-w.Ready():
		t.Fatal("doorbell rang before any Append")
	default:
	}
	w.Append(AppendFrame(nil, OpPing, 1, nil))
	w.Append(AppendFrame(nil, OpPing, 2, nil))
	select {
	case <-w.Ready():
	default:
		t.Fatal("doorbell silent after Append")
	}
}

// TestWriterConcurrentAppends runs appenders against one flusher the way
// both endpoints do; every frame arrives exactly once (run it under -race).
func TestWriterConcurrentAppends(t *testing.T) {
	const appenders, each = 4, 500
	w := NewWriter(DefaultMaxFrameBytes, 4<<10)
	var buf bytes.Buffer
	stop := make(chan struct{})
	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		for {
			select {
			case <-w.Ready():
			case <-stop:
				if _, _, _, err := w.Flush(&buf); err != nil {
					t.Error(err)
				}
				return
			}
			if _, _, _, err := w.Flush(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				w.Append(AppendFrame(nil, OpPing, uint64(a*each+i), nil))
			}
		}(a)
	}
	wg.Wait()
	close(stop)
	<-flushed
	seen := make(map[string]bool)
	for _, f := range readStream(t, buf.Bytes()) {
		for _, sub := range f.subs {
			seen[string(sub)] = true
		}
	}
	if len(seen) != appenders*each {
		t.Fatalf("%d distinct frames flushed, want %d", len(seen), appenders*each)
	}
}
