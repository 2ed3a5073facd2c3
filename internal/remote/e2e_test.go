package remote_test

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tensordimm/internal/cluster"
	"tensordimm/internal/recsys"
	"tensordimm/internal/remote"
	"tensordimm/internal/runtime"
)

// e2eBin is the tensorserve binary TestMain builds once for the
// multi-process tests; empty when the build failed.
var e2eBin string

// TestMain builds cmd/tensorserve once — with -race when the test binary
// itself runs under the race detector — so every multi-process test
// spawns real shard processes from the same build.
func TestMain(m *testing.M) {
	os.Exit(e2eMain(m))
}

func e2eMain(m *testing.M) int {
	dir, err := os.MkdirTemp("", "tensordimm-e2e-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e temp dir:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "tensorserve")
	args := []string{"build", "-o", bin}
	if raceEnabled {
		args = append(args, "-race")
	}
	args = append(args, "tensordimm/cmd/tensorserve")
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building tensorserve for e2e: %v\n%s", err, out)
		return 1
	}
	e2eBin = bin
	return m.Run()
}

// e2eModelCfg is the fleet geometry of the multi-process tests, chosen to
// be exactly expressible in tensorserve flags: the NCF benchmark with
// -rows 301 (uneven row-wise shard boundaries) and -dim 128 (one stripe
// on the default 8-DIMM node). The golden model built here from seed 42
// is bit-identical to what every shard process builds at boot.
func e2eModelCfg() recsys.Config {
	cfg := recsys.NCF()
	cfg.TableRows = 301
	cfg.EmbDim = 128
	return cfg
}

// e2eStrategyFlag maps a strategy to its -shard flag value.
func e2eStrategyFlag(strat cluster.Strategy) string {
	if strat == cluster.RowWise {
		return "row"
	}
	return "table"
}

// e2eProc is one real `tensorserve shard` process.
type e2eProc struct {
	addr string
	cmd  *exec.Cmd
	kill func()
}

// startProcReplica spawns a real shard process and parses its listening
// address off stdout. listenAt "127.0.0.1:0" picks a free port; a fixed
// address lets a "restarted" replica reclaim a killed process's endpoint.
func startProcReplica(t *testing.T, strat cluster.Strategy, nodes, s int, listenAt string) *e2eProc {
	t.Helper()
	if e2eBin == "" {
		t.Fatal("tensorserve e2e binary was not built")
	}
	cfg := e2eModelCfg()
	cmd := exec.Command(e2eBin, "shard", listenAt,
		"-nodes", strconv.Itoa(nodes),
		"-shard-id", strconv.Itoa(s),
		"-shard", e2eStrategyFlag(strat),
		"-model", "ncf",
		"-rows", strconv.Itoa(cfg.TableRows),
		"-dim", strconv.Itoa(cfg.EmbDim),
		"-maxbatch", strconv.Itoa(testMaxBatch),
		"-workers", "2",
	)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				addrCh <- addr
			}
		}
		close(addrCh)
	}()
	var once sync.Once
	p := &e2eProc{cmd: cmd}
	p.kill = func() {
		once.Do(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
	}
	t.Cleanup(p.kill)
	select {
	case addr, ok := <-addrCh:
		if !ok || addr == "" {
			t.Fatalf("shard %d process at %s exited before announcing its address", s, listenAt)
		}
		p.addr = addr
	case <-time.After(30 * time.Second):
		t.Fatalf("shard %d process at %s never announced its address", s, listenAt)
	}
	return p
}

// TestE2EMultiProcessFailover is the end-to-end failover proof over real
// processes: a 2-shard fleet with 2 single-process replicas per shard
// serves concurrent mixed embed/update traffic while one replica is
// SIGKILLed mid-stream — not one request may fail, and the quiesced fleet
// must read back bit-identical to the in-process golden model. A fresh
// process then restarts at the killed replica's address and the OTHER
// replica of that shard is killed, so the subsequent bit-identity checks
// can only be served by the restarted process — proving the catch-up
// replay reproduced its pre-crash state across a process boundary. Both
// sharding strategies run the same script.
func TestE2EMultiProcessFailover(t *testing.T) {
	for _, strat := range []cluster.Strategy{cluster.TableWise, cluster.RowWise} {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			e2eFailover(t, strat)
		})
	}
}

func e2eFailover(t *testing.T, strat cluster.Strategy) {
	const shards, replicas = 2, 2
	cfg := e2eModelCfg()
	m, err := recsys.Build(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([][]*e2eProc, shards)
	addrs := make([][]string, shards)
	for s := 0; s < shards; s++ {
		for r := 0; r < replicas; r++ {
			p := startProcReplica(t, strat, shards, s, "127.0.0.1:0")
			procs[s] = append(procs[s], p)
			addrs[s] = append(addrs[s], p.addr)
		}
	}
	rc, err := remote.New(remote.Config{
		Model:        cfg,
		Strategy:     strat,
		Shards:       addrs,
		MaxBatch:     testMaxBatch,
		ReconnectMin: 5 * time.Millisecond,
		ReconnectMax: 50 * time.Millisecond,
		OnApplied: func(up runtime.TableUpdate) {
			runtime.AccumulateGolden(m.Embedding.Tables[up.Table], up)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })

	const workers, iters = 4, 50
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	kill := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(500 + w)))
			var dst []float32
			for i := 0; i < iters; i++ {
				if i == iters/2 && w == 0 {
					close(kill)
				}
				if w == workers-1 && i%5 == 0 {
					if err := rc.ApplyUpdates([]runtime.TableUpdate{randUpdate(rng, cfg)}); err != nil {
						errCh <- fmt.Errorf("worker %d update %d: %w", w, i, err)
						return
					}
					continue
				}
				batch := 1 + rng.Intn(testMaxBatch)
				var err error
				dst, err = rc.EmbedInto(dst, randRows(rng, cfg, batch), batch)
				if err != nil {
					errCh <- fmt.Errorf("worker %d read %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	victim := procs[0][1]
	go func() {
		<-kill
		victim.kill() // SIGKILL: the kernel tears the sockets down mid-request
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Quiesced: the surviving fleet must read back bit-identical to the
	// golden model OnApplied kept in lockstep.
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5; i++ {
		batch := 1 + rng.Intn(testMaxBatch)
		checkGolden(t, m, rc, randRows(rng, cfg, batch), batch)
	}
	if up := rc.Metrics().ReplicasUp; up != shards*replicas-1 {
		t.Fatalf("%d replicas up after the kill, want %d", up, shards*replicas-1)
	}

	// A fresh process at the victim's address rebuilds the deterministic
	// shard model at sequence 0; the router replays the full log into it.
	startProcReplica(t, strat, shards, 0, victim.addr)
	waitCond(t, 10*time.Second, "restarted process re-admission", func() bool {
		return rc.Metrics().ReplicasUp == shards*replicas
	})
	if mt := rc.Metrics(); mt.Resyncs == 0 {
		t.Fatalf("restarted process rejoined without a catch-up replay: %+v", mt)
	}

	// Kill the other replica of shard 0: only the restarted process can
	// serve the shard now, so these checks prove the replay reproduced its
	// pre-crash state across a process boundary.
	procs[0][0].kill()
	waitCond(t, 10*time.Second, "killed replica marked down", func() bool {
		return rc.Metrics().ReplicasUp == shards*replicas-1
	})
	for i := 0; i < 5; i++ {
		batch := 1 + rng.Intn(testMaxBatch)
		checkGolden(t, m, rc, randRows(rng, cfg, batch), batch)
	}
}
