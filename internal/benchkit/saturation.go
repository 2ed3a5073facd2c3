package benchkit

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tensordimm/internal/netclient"
	"tensordimm/internal/telemetry"
	"tensordimm/internal/wire"
)

// The saturation sweep is the open-loop companion of NetRoundTrip: the
// closed-loop benchmark reports the plane's peak, the sweep shows how it
// gets there — offered load steps up a fixed grid, arrivals are paced by
// wall clock regardless of completions (the arrival model of a production
// front end), and each step records what the plane actually delivered,
// its p99, and how much load was shed by admission control or the
// client-side arrival queue overflowing.
const (
	// satWorkers bounds concurrent in-flight requests; arrivals beyond it
	// queue (up to satQueue) and then shed — open loop needs a bounded
	// queue or overload would just grow the backlog without ever failing.
	satWorkers = 256
	satQueue   = 4096
	// satPointTime is how long each offered-load step runs.
	satPointTime = 400 * time.Millisecond
	// satPace is the arrival pacer's wake interval: each wake issues every
	// arrival due since the last one, so pacing stays accurate under
	// scheduler jitter without a per-request timer.
	satPace = 200 * time.Microsecond
)

// saturationOffered is the offered-load grid, in req/s: from well under
// the plane's closed-loop peak to well past it, so the recorded curve
// shows the ramp, the knee, and the overload plateau.
var saturationOffered = []float64{25_000, 50_000, 75_000, 100_000, 125_000, 150_000}

// SaturationPoint is one offered-load step of the sweep, as serialized
// into BENCH_serving.json's "saturation" section.
type SaturationPoint struct {
	// OfferedReqS is the open-loop arrival rate this step paced.
	OfferedReqS float64 `json:"offered_req_s"`
	// AchievedReqS is the completion rate the plane delivered.
	AchievedReqS float64 `json:"achieved_req_s"`
	// P99Us is the client-observed p99 latency (queueing included), µs.
	P99Us float64 `json:"p99_us"`
	// Shed counts arrivals lost to overload: server-side admission sheds
	// plus client-side arrival-queue overflow.
	Shed uint64 `json:"shed"`
}

// RunSaturation executes the open-loop sweep against the same loopback
// stack NetRoundTrip measures (2-shard cluster behind netserve, pooled
// netclient) and returns one point per offered-load step. It reuses
// testing.Benchmark as the harness so the stack builders' error handling
// is shared with the closed-loop suite; the sweep itself runs exactly
// once — its multi-second first iteration satisfies the default benchtime,
// so testing.Benchmark never re-enters.
func RunSaturation() []SaturationPoint {
	var pts []SaturationPoint
	testing.Benchmark(func(b *testing.B) {
		if pts != nil {
			return
		}
		pts = saturationSweep(b)
	})
	return pts
}

// saturationSweep builds the network stack, warms it, and walks the
// offered-load grid.
func saturationSweep(b *testing.B) []SaturationPoint {
	m, _, cl, _, cleanup := netStack(b)
	defer cleanup()
	batches := feed(b, m)
	var dst []float32
	for i := 0; i < benchWarmup; i++ {
		d, err := cl.EmbedInto(dst, batches[i%len(batches)], benchBatch)
		if err != nil {
			b.Fatal(err)
		}
		dst = d
	}
	pts := make([]SaturationPoint, 0, len(saturationOffered))
	for _, offered := range saturationOffered {
		pts = append(pts, saturationPoint(b, cl, batches, offered, satPointTime))
	}
	return pts
}

// saturationPoint paces one offered-load step: a wall-clock pacer issues
// arrival stamps into a bounded queue, satWorkers closed-loop workers
// drain it, and the step reports achieved rate, p99 (measured from the
// arrival stamp, so queueing counts), and shed arrivals.
func saturationPoint(b *testing.B, cl *netclient.Client, batches [][][]int, offered float64, dur time.Duration) SaturationPoint {
	arrivals := make(chan time.Time, satQueue)
	lat := telemetry.NewHistogram()
	var completed, shed atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < satWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var dst []float32
			cursor := w
			for at := range arrivals {
				d, err := cl.EmbedInto(dst, batches[cursor%len(batches)], benchBatch)
				cursor++
				if err != nil {
					var se *netclient.ServerError
					if errors.As(err, &se) && se.Code == wire.ErrOverloaded {
						shed.Add(1)
						continue
					}
					b.Error(err)
					return
				}
				dst = d
				completed.Add(1)
				lat.Observe(time.Since(at).Seconds())
			}
		}(w)
	}

	start := time.Now()
	issued := 0
	for {
		el := time.Since(start)
		if el >= dur {
			break
		}
		now := time.Now()
		for due := int(offered * el.Seconds()); issued < due; issued++ {
			select {
			case arrivals <- now:
			default:
				// Queue full: the open-loop arrival is lost, which is the
				// honest overload signal — a real front end would time it out.
				shed.Add(1)
			}
		}
		time.Sleep(satPace)
	}
	close(arrivals)
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	return SaturationPoint{
		OfferedReqS:  offered,
		AchievedReqS: float64(completed.Load()) / elapsed,
		P99Us:        lat.Snapshot().P99 * 1e6,
		Shed:         shed.Load(),
	}
}
