package wire

import (
	"encoding/binary"
	"io"
	"sync"
)

// maxCoalesceBytes soft-caps one coalesced frame so a Writer's buffers
// stay cache-sized even when the negotiated frame limits are generous;
// past it Flush just emits another BATCH frame.
const maxCoalesceBytes = 256 << 10

// Writer is one connection's send side, the group commit both endpoints
// share. Any number of goroutines Append complete frames; one flusher
// waits on Ready and calls Flush, which writes everything appended since
// its last pass: a lone frame plain, several as BATCH super-frames split
// at the sub-frame cap and at the frame-size cap. Appenders never touch
// the socket and never wait on it, so frames that arrive while a write
// (or the flusher's own scheduling delay) is in flight coalesce into the
// next one. When the flusher yields is its owner's policy, not Writer's.
type Writer struct {
	max   int           // one flushed frame's size cap
	ready chan struct{} // one-slot doorbell

	mu    sync.Mutex
	buf   []byte // appended frames behind BatchHeaderBytes of headroom
	n     int    // frames in buf
	spare []byte // the other half of the double buffer; nil while Flush writes it
	err   error  // sticky: the first failed write
}

// NewWriter returns a Writer whose BATCH frames never exceed the smaller
// of the two endpoints' frame-size limits (this side's own and the one the
// peer's handshake announced), nor a cache-sized soft cap; a frame larger
// than the cap on its own goes out plain.
func NewWriter(ownMax, peerMax int) *Writer {
	return &Writer{
		max:   min(ownMax, peerMax, maxCoalesceBytes),
		ready: make(chan struct{}, 1),
		buf:   make([]byte, BatchHeaderBytes, 32<<10),
		spare: make([]byte, BatchHeaderBytes, 32<<10),
	}
}

// Append copies one complete frame into the send buffer and rings the
// doorbell; the caller's buffer is free for reuse on return. It never
// blocks on the flusher. After a write has failed, frames are dropped.
func (w *Writer) Append(frame []byte) {
	w.mu.Lock()
	if w.err == nil {
		w.buf = append(w.buf, frame...)
		w.n++
	}
	w.mu.Unlock()
	// The one-slot doorbell latches the ring even while the flusher is
	// mid-write, so no appended frame is ever stranded.
	select {
	case w.ready <- struct{}{}:
	default:
	}
}

// Ready is the doorbell: it delivers after at least one Append since the
// flusher last received from it.
func (w *Writer) Ready() <-chan struct{} { return w.ready }

// Flush writes every frame appended since the last Flush to dst and
// reports how many it wrote, how many BATCH frames it formed and how many
// frames rode inside them. The append buffer is swapped out first, so no
// lock is held on the socket and appenders fill the other half meanwhile.
// A write error is sticky: this and every later Flush return it, and
// later Appends are dropped. Flush is the single flusher's call; it must
// not run concurrently with itself.
func (w *Writer) Flush(dst io.Writer) (frames, batches, batched int, err error) {
	w.mu.Lock()
	if w.err != nil || w.n == 0 {
		err = w.err
		w.mu.Unlock()
		return 0, 0, 0, err
	}
	buf, frames := w.buf, w.n
	w.buf, w.spare, w.n = w.spare[:BatchHeaderBytes], nil, 0
	w.mu.Unlock()

	batches, batched, err = w.write(dst, buf, frames)

	w.mu.Lock()
	w.spare = buf
	if err != nil {
		w.err = err
		w.buf, w.n = w.buf[:BatchHeaderBytes], 0
	}
	w.mu.Unlock()
	return frames, batches, batched, err
}

// write sends the n frames packed behind buf's headroom, splitting
// wherever the next frame would push a chunk past the size cap or the
// sub-frame cap; a chunk of one frame goes out plain. Each chunk's BATCH
// header is stamped into the bytes just before it — they belong to an
// already-written chunk (or the headroom) — so the whole flush is
// zero-copy.
func (w *Writer) write(dst io.Writer, buf []byte, n int) (batches, batched int, err error) {
	off := BatchHeaderBytes // start of the first unwritten frame
	for n > 0 {
		end, k := off, 0
		for k < n && k < MaxBatchSubFrames {
			flen := 4 + int(binary.LittleEndian.Uint32(buf[end:]))
			if k > 0 && BatchHeaderBytes+(end-off)+flen > w.max {
				break
			}
			end += flen
			k++
		}
		chunk := buf[off:end]
		if k > 1 {
			// The request ids that matter ride inside the sub-frames; the
			// super-frame's own id carries no information.
			chunk = finishBatch(buf[off-BatchHeaderBytes:end], 0, k)
			batches++
			batched += k
		}
		if _, err := dst.Write(chunk); err != nil {
			return batches, batched, err
		}
		off, n = end, n-k
	}
	return batches, batched, nil
}
