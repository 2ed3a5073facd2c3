package remote_test

import (
	"errors"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"tensordimm/internal/cluster"
	"tensordimm/internal/netclient"
	"tensordimm/internal/netserve"
	"tensordimm/internal/remote"
	"tensordimm/internal/runtime"
	"tensordimm/internal/telemetry"
	"tensordimm/internal/wire"
)

// startFront serves rc behind a netserve front on a loopback listener —
// the shape of the benchmark's fleet workload — and returns the server
// and a netclient dialed to it with one connection, both closed at
// cleanup (the client first, then the server, then the router it fronts).
func startFront(t *testing.T, rc *remote.RemoteCluster) (*netserve.Server, *netclient.Client) {
	t.Helper()
	return startFrontWith(t, rc, netserve.Config{})
}

// startFrontWith is startFront with the front's config.
func startFrontWith(t *testing.T, rc *remote.RemoteCluster, cfg netserve.Config) (*netserve.Server, *netclient.Client) {
	t.Helper()
	ns, err := netserve.New(rc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ns.Serve(l)
	t.Cleanup(func() { ns.Close() })
	cl, err := netclient.Dial(l.Addr().String(), netclient.Config{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return ns, cl
}

// TestNetFrontBitIdentical drives a RemoteCluster over a 2-shard x
// 2-replica fleet through a netserve front: the front's reader sends each
// read to the replicas and its executors await them. Several clients pipeline waves of reads over one netclient
// connection, so they reach the front inside BATCH frames, with an update
// between waves. Every answer must be bit-identical to the golden
// embedding forward, and the front must end with nothing in flight.
func TestNetFrontBitIdentical(t *testing.T) {
	const clients, wave, waves = 4, 8, 4
	m := buildModel(t)
	_, addrs := startFleet(t, cluster.TableWise, 2, 2)
	rc := newRouter(t, m, cluster.TableWise, addrs, nil)
	reg := telemetry.NewRegistry()
	ns, cl := startFrontWith(t, rc, netserve.Config{Registry: reg})
	rng := rand.New(rand.NewSource(31))

	for w := 0; w < waves; w++ {
		type read struct {
			rows  [][]int
			batch int
			want  []float32
		}
		reads := make([][]read, clients)
		for c := range reads {
			for i := 0; i < wave; i++ {
				batch := 1 + rng.Intn(testMaxBatch)
				rows := randRows(rng, m.Cfg, batch)
				golden, err := m.Embedding.Forward(rows, batch)
				if err != nil {
					t.Fatal(err)
				}
				reads[c] = append(reads[c], read{rows, batch, golden.Data()})
			}
		}
		var wg sync.WaitGroup
		for c := range reads {
			wg.Add(1)
			go func(rs []read) {
				defer wg.Done()
				calls := make([]*netclient.Call, len(rs))
				for i, r := range rs {
					ca, err := cl.StartEmbed(nil, r.rows, r.batch)
					if err != nil {
						t.Error(err)
						return
					}
					calls[i] = ca
				}
				for i, ca := range calls {
					err := <-ca.Done()
					got := ca.Dst()
					if err == nil {
						for j, want := range rs[i].want {
							if math.Float32bits(got[j]) != math.Float32bits(want) {
								t.Errorf("wave %d read %d value %d: front %v != golden %v", w, i, j, got[j], want)
								break
							}
						}
					} else {
						t.Errorf("wave %d read %d: %v", w, i, err)
					}
					cl.Finish(ca)
				}
			}(reads[c])
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		if err := cl.Update([]runtime.TableUpdate{randUpdate(rng, m.Cfg)}); err != nil {
			t.Fatal(err)
		}
	}
	mt, snap := ns.Metrics(), reg.Snapshot()
	reqs, _ := snap.Counter("tensordimm_net_requests_total")
	inflight, _ := snap.Gauge("tensordimm_net_inflight")
	if want := uint64(clients * wave * waves); reqs != want || inflight != 0 {
		t.Fatalf("front served %d reads with %g in flight, want %d and 0", reqs, inflight, want)
	}
	if mt.BatchedIn == 0 {
		t.Fatal("no read reached the front inside a BATCH frame: the pipelined path was not exercised")
	}
	t.Logf("%d reads, %d inside %d BATCH frames", reqs, mt.BatchedIn, mt.BatchesIn)
}

// TestNetFrontShardOutageIsUnavailable stops every replica of one shard
// behind a netserve front: a read and an update through netclient must
// each fail with UNAVAILABLE, the class the router's *Unavailable carries,
// not with INTERNAL.
func TestNetFrontShardOutageIsUnavailable(t *testing.T) {
	m := buildModel(t)
	procs, addrs := startFleet(t, cluster.TableWise, 2, 2)
	rc := newRouter(t, m, cluster.TableWise, addrs, nil)
	_, cl := startFront(t, rc)
	for _, rp := range procs[1] {
		rp.stop()
	}
	waitCond(t, 5*time.Second, "shard 1's replicas marked down", func() bool {
		return rc.Metrics().ReplicasUp == 2
	})
	rng := rand.New(rand.NewSource(43))
	var se *netclient.ServerError
	if _, err := cl.EmbedInto(nil, randRows(rng, m.Cfg, 2), 2); !errors.As(err, &se) || se.Code != wire.ErrUnavailable {
		t.Fatalf("read error = %v, want an UNAVAILABLE ServerError", err)
	}
	// One entry per table: table-wise, some land on the dead shard.
	ups := make([]runtime.TableUpdate, m.Cfg.Tables)
	for tbl := range ups {
		ups[tbl] = randUpdate(rng, m.Cfg)
		ups[tbl].Table = tbl
	}
	if err := cl.Update(ups); !errors.As(err, &se) || se.Code != wire.ErrUnavailable {
		t.Fatalf("update error = %v, want an UNAVAILABLE ServerError", err)
	}
}
