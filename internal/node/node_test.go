package node

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"tensordimm/internal/embed"
	"tensordimm/internal/isa"
	"tensordimm/internal/nmp"
	"tensordimm/internal/tensor"
)

func testNode(t *testing.T, dimms int) *Node {
	t.Helper()
	n, err := New(Config{DIMMs: dimms, PerDIMMBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestConfigValidate(t *testing.T) {
	if _, err := New(Config{DIMMs: 0, PerDIMMBytes: 64}); err == nil {
		t.Fatal("want error for zero DIMMs")
	}
	if _, err := New(Config{DIMMs: 4, PerDIMMBytes: 100}); err == nil {
		t.Fatal("want error for unaligned capacity")
	}
	n := testNode(t, 8)
	if n.NodeDim() != 8 || n.CapacityBytes() != 8<<20 || n.StripeBytes() != 512 {
		t.Fatalf("geometry: dim=%d cap=%d stripe=%d", n.NodeDim(), n.CapacityBytes(), n.StripeBytes())
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	n := testNode(t, 8)
	data := make([]byte, 8*64*3) // three stripes
	for i := range data {
		data[i] = byte(i % 251)
	}
	if err := n.Write(0, data); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(data))
	if err := n.Read(0, out); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if out[i] != data[i] {
			t.Fatalf("byte %d: %d != %d", i, out[i], data[i])
		}
	}
}

func TestWriteReadValidation(t *testing.T) {
	n := testNode(t, 4)
	if err := n.Write(63, []byte{1}); err == nil {
		t.Fatal("want alignment error")
	}
	if err := n.Write(n.CapacityBytes()-32, make([]byte, 64)); err == nil {
		t.Fatal("want capacity error")
	}
	if err := n.Read(63, make([]byte, 1)); err == nil {
		t.Fatal("want alignment error on read")
	}
	if err := n.Read(n.CapacityBytes()-32, make([]byte, 64)); err == nil {
		t.Fatal("want capacity error on read")
	}
}

func TestFloatsRoundTrip(t *testing.T) {
	n := testNode(t, 4)
	vals := make([]float32, 100)
	for i := range vals {
		vals[i] = float32(i) * 0.25
	}
	if err := n.WriteFloats(4096, vals); err != nil {
		t.Fatal(err)
	}
	got, err := n.ReadFloats(4096, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("float %d: %v != %v", i, got[i], vals[i])
		}
	}
}

// uploadTable writes an embed.Table into pool memory at base, row r at
// base + r*rowBytes, which under the striped mapping spreads each row across
// all DIMMs (Figure 7).
func uploadTable(t *testing.T, n *Node, tb *embed.Table, base uint64) {
	t.Helper()
	for r := 0; r < tb.Rows(); r++ {
		if err := n.WriteFloats(base+uint64(r)*uint64(tb.Dim())*4, tb.Row(r)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGatherAverageMatchesGolden(t *testing.T) {
	// 8 DIMMs; dim 128 floats = 512 B = 8 blocks = exactly one stripe.
	const dimms, dim = 8, 128
	n := testNode(t, dimms)
	tb, _ := embed.NewRandomTable(200, dim, 11)

	tableBase, _ := n.Alloc(uint64(tb.Bytes()))
	uploadTable(t, n, tb, tableBase)

	batch, reduction := 4, 4
	count := batch * reduction // 16 = one index block
	rng := rand.New(rand.NewSource(5))
	rows := make([]int, count)
	idx32 := make([]int32, count)
	for i := range rows {
		rows[i] = rng.Intn(tb.Rows())
		idx32[i] = int32(rows[i])
	}

	idxBase := uint64(1 << 18)
	if err := n.LoadIndices(idxBase, idx32); err != nil {
		t.Fatal(err)
	}
	gatherBase, _ := n.Alloc(uint64(count * dim * 4))
	outBase, _ := n.Alloc(uint64(batch * dim * 4))

	prog := isa.Program{
		isa.Gather(tableBase/64, idxBase/64, gatherBase/64, uint32(count)),
		isa.Average(gatherBase/64, uint32(reduction), outBase/64, uint32(batch)),
	}
	if err := n.Execute(prog); err != nil {
		t.Fatal(err)
	}

	// Golden model.
	gathered, err := tb.Gather(rows)
	if err != nil {
		t.Fatal(err)
	}
	want, err := embed.Average(gathered, reduction)
	if err != nil {
		t.Fatal(err)
	}

	gotVals, err := n.ReadFloats(outBase, batch*dim)
	if err != nil {
		t.Fatal(err)
	}
	got := tensor.MustFromSlice(gotVals, batch, dim)
	if !tensor.Equal(got, want) {
		t.Fatal("NMP AVERAGE output differs from golden model")
	}

	// Datapath stats must reflect the broadcast execution.
	s := n.Stats()
	if s.Instructions != uint64(2*dimms) {
		t.Fatalf("instructions retired = %d, want %d", s.Instructions, 2*dimms)
	}
	if s.BlocksRead == 0 || s.BlocksWritten == 0 || s.ALUBlockOps == 0 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestGatherReduceTwoTablesMatchesGolden(t *testing.T) {
	// NCF-style: gather from two tables, element-wise multiply (GMF path).
	const dimms, dim = 4, 64 // one stripe = 4*16 = 64 floats
	n := testNode(t, dimms)
	t1, _ := embed.NewRandomTable(100, dim, 1)
	t2, _ := embed.NewRandomTable(100, dim, 2)
	base1, _ := n.Alloc(uint64(t1.Bytes()))
	base2, _ := n.Alloc(uint64(t2.Bytes()))
	uploadTable(t, n, t1, base1)
	uploadTable(t, n, t2, base2)

	batch := 16
	rng := rand.New(rand.NewSource(9))
	rows1 := make([]int, batch)
	rows2 := make([]int, batch)
	idx1 := make([]int32, batch)
	idx2 := make([]int32, batch)
	for i := 0; i < batch; i++ {
		rows1[i] = rng.Intn(100)
		rows2[i] = rng.Intn(100)
		idx1[i] = int32(rows1[i])
		idx2[i] = int32(rows2[i])
	}
	idxBase1, idxBase2 := uint64(1<<19), uint64(1<<19+4096)
	if err := n.LoadIndices(idxBase1, idx1); err != nil {
		t.Fatal(err)
	}
	if err := n.LoadIndices(idxBase2, idx2); err != nil {
		t.Fatal(err)
	}
	g1, _ := n.Alloc(uint64(batch * dim * 4))
	g2, _ := n.Alloc(uint64(batch * dim * 4))
	out, _ := n.Alloc(uint64(batch * dim * 4))

	prog := isa.Program{
		isa.Gather(base1/64, idxBase1/64, g1/64, uint32(batch)),
		isa.Gather(base2/64, idxBase2/64, g2/64, uint32(batch)),
		isa.Reduce(isa.RMul, g1/64, g2/64, out/64, uint32(batch*dim*4/64)),
	}
	if err := n.Execute(prog); err != nil {
		t.Fatal(err)
	}

	a, _ := t1.Gather(rows1)
	b, _ := t2.Gather(rows2)
	want, _ := tensor.Mul(a, b)
	gotVals, err := n.ReadFloats(out, batch*dim)
	if err != nil {
		t.Fatal(err)
	}
	got := tensor.MustFromSlice(gotVals, batch, dim)
	if !tensor.Equal(got, want) {
		t.Fatal("NMP GATHER+REDUCE differs from golden model")
	}
}

func TestMultiStripeEmbeddings(t *testing.T) {
	// Embeddings spanning k=2 stripes (dim 128 on 4 DIMMs): the runtime
	// expands indices stripe-transposed within each pooling group so the
	// paper's AVERAGE addressing (Figure 9(c)) still applies.
	const dimms, dim = 4, 128 // stripe = 64 floats, k = 2
	const k = 2
	n := testNode(t, dimms)
	tb, _ := embed.NewRandomTable(64, dim, 3)
	tableBase, _ := n.Alloc(uint64(tb.Bytes()))
	uploadTable(t, n, tb, tableBase)

	batch, reduction := 2, 4
	rng := rand.New(rand.NewSource(21))
	rows := make([]int, batch*reduction)
	for i := range rows {
		rows[i] = rng.Intn(64)
	}
	// Expand: group-major, stripe-major, embedding-minor.
	expanded := make([]int32, 0, batch*reduction*k)
	for g := 0; g < batch; g++ {
		for s := 0; s < k; s++ {
			for j := 0; j < reduction; j++ {
				expanded = append(expanded, int32(rows[g*reduction+j]*k+s))
			}
		}
	}
	idxBase := uint64(1 << 18)
	if err := n.LoadIndices(idxBase, expanded); err != nil {
		t.Fatal(err)
	}
	gBase, _ := n.Alloc(uint64(len(expanded) * int(n.StripeBytes())))
	oBase, _ := n.Alloc(uint64(batch * dim * 4))
	prog := isa.Program{
		isa.Gather(tableBase/64, idxBase/64, gBase/64, uint32(len(expanded))),
		isa.Average(gBase/64, uint32(reduction), oBase/64, uint32(batch*k)),
	}
	if err := n.Execute(prog); err != nil {
		t.Fatal(err)
	}

	gathered, _ := tb.Gather(rows)
	want, _ := embed.Average(gathered, reduction)
	gotVals, err := n.ReadFloats(oBase, batch*dim)
	if err != nil {
		t.Fatal(err)
	}
	got := tensor.MustFromSlice(gotVals, batch, dim)
	if !tensor.Equal(got, want) {
		t.Fatal("multi-stripe AVERAGE differs from golden model")
	}
}

func TestExecuteValidatesProgram(t *testing.T) {
	n := testNode(t, 2)
	if err := n.Execute(isa.Program{{Op: isa.OpGather, Count: 3}}); err == nil {
		t.Fatal("want validation error")
	}
}

// TestNewStartsNoGoroutines pins that a node owns no goroutines: Execute
// runs the NMP cores on the caller's goroutine. Goroutines of earlier tests
// that exit meanwhile can only make the count fall, never rise.
func TestNewStartsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	n, err := New(Config{DIMMs: 64, PerDIMMBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("New(64 DIMMs) started %d goroutines, want 0", after-before)
	}
}

// TestExecuteStopsAtFaultingInstruction pins the fault contract of a
// program: the instruction that faults on every DIMM is reported by its
// index and the lowest DIMM, the instructions before it retired on every
// DIMM, and nothing after it ran.
func TestExecuteStopsAtFaultingInstruction(t *testing.T) {
	const dimms = 4
	n := testNode(t, dimms)
	idxBase := n.ReserveIndexRegion(64)
	if err := n.LoadIndices(idxBase, make([]int32, isa.LanesPerBlock)); err != nil {
		t.Fatal(err)
	}
	g, _ := n.Alloc(isa.LanesPerBlock * n.StripeBytes())
	out, _ := n.Alloc(isa.LanesPerBlock * n.StripeBytes())
	blocks := uint32(isa.LanesPerBlock * dimms)
	prog := isa.Program{
		isa.Gather(0, idxBase/64, g/64, isa.LanesPerBlock),
		isa.Gather(0, idxBase/64, n.CapacityBytes()/64, isa.LanesPerBlock), // output past every rank
		isa.Reduce(isa.RAdd, g/64, g/64, out/64, blocks),
	}
	before := n.Stats().Instructions
	err := n.Execute(prog)
	if err == nil {
		t.Fatal("want an error from the out-of-capacity GATHER")
	}
	if msg := err.Error(); !strings.Contains(msg, "instruction 1 ") || !strings.Contains(msg, "on DIMM 0:") {
		t.Fatalf("error %q does not name instruction 1 on DIMM 0", msg)
	}
	if got := n.Stats().Instructions - before; got != dimms {
		t.Fatalf("%d instructions retired, want %d (the first GATHER on every DIMM, nothing after the fault)", got, dimms)
	}
}

func TestAllocFreeBasics(t *testing.T) {
	n := testNode(t, 4)
	total := n.FreeBytes()
	a, err := n.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if a%n.StripeBytes() != 0 {
		t.Fatalf("alloc base %#x not stripe aligned", a)
	}
	b, _ := n.Alloc(1000)
	if b == a {
		t.Fatal("overlapping allocations")
	}
	if n.AllocCount() != 2 {
		t.Fatalf("AllocCount = %d", n.AllocCount())
	}
	if err := n.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := n.Free(b); err != nil {
		t.Fatal(err)
	}
	if n.FreeBytes() != total {
		t.Fatalf("leak: free %d != total %d", n.FreeBytes(), total)
	}
	if err := n.Free(a); err == nil {
		t.Fatal("double free must error")
	}
	if _, err := n.Alloc(0); err == nil {
		t.Fatal("zero alloc must error")
	}
	if _, err := n.Alloc(n.CapacityBytes() * 2); err == nil {
		t.Fatal("oversized alloc must error")
	}
}

func TestAllocReusesFreedSpace(t *testing.T) {
	n := testNode(t, 4)
	a, _ := n.Alloc(n.CapacityBytes() / 2)
	if _, err := n.Alloc(n.CapacityBytes()); err == nil {
		t.Fatal("should not fit")
	}
	if err := n.Free(a); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Alloc(n.CapacityBytes()); err != nil {
		t.Fatalf("coalesced free space not reusable: %v", err)
	}
}

// TestIndexRegionReserveRelease pins the shared region's address allocator:
// regions are block-aligned and disjoint, a released one is handed out again
// instead of fresh addresses, and the list its previous owner loaded is gone.
func TestIndexRegionReserveRelease(t *testing.T) {
	n := testNode(t, 2)
	a := n.ReserveIndexRegion(100) // rounds up to two blocks
	b := n.ReserveIndexRegion(0)   // at least one block
	c := n.ReserveIndexRegion(64)
	if a%64 != 0 || b != a+128 || c != b+64 {
		t.Fatalf("regions at %#x, %#x, %#x", a, b, c)
	}
	idx := make([]int32, 32)
	if err := n.LoadIndices(a, idx); err != nil {
		t.Fatal(err)
	}
	if err := n.ReleaseIndexRegion(a); err != nil {
		t.Fatal(err)
	}
	if err := n.ReleaseIndexRegion(a); err == nil {
		t.Fatal("double release must error")
	}
	if err := n.ReleaseIndexRegion(b + 1); err == nil {
		t.Fatal("releasing a non-base must error")
	}
	if got := n.ReserveIndexRegion(128); got != a {
		t.Fatalf("released region not reused: got %#x, want %#x", got, a)
	}
	// The new owner has loaded nothing yet: a GATHER over the old list fails.
	if err := n.Execute(isa.Program{isa.Gather(0, a/64, 64, 16)}); err == nil {
		t.Fatal("want error executing over a released, unwritten index region")
	}
	if err := n.LoadIndices(a, idx); err != nil {
		t.Fatal(err)
	}
	if err := n.Execute(isa.Program{isa.Gather(0, a/64, 64, 16)}); err != nil {
		t.Fatal(err)
	}
}

// Property: allocations never overlap and are stripe-aligned.
func TestQuickAllocatorInvariants(t *testing.T) {
	f := func(sizes []uint16) bool {
		n, err := New(Config{DIMMs: 4, PerDIMMBytes: 1 << 16})
		if err != nil {
			return false
		}
		type region struct{ base, size uint64 }
		var live []region
		for _, s := range sizes {
			size := uint64(s%4096) + 1
			base, err := n.Alloc(size)
			if err != nil {
				continue // pool exhausted is fine
			}
			if base%n.StripeBytes() != 0 {
				return false
			}
			for _, r := range live {
				if base < r.base+r.size && r.base < base+size {
					return false // overlap
				}
			}
			live = append(live, region{base, size})
			// Free every other allocation to exercise coalescing.
			if len(live)%2 == 0 {
				victim := live[0]
				if err := n.Free(victim.base); err != nil {
					return false
				}
				live = live[1:]
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentExecuteDisjointRegions runs many GATHER programs from
// concurrent goroutines, each over its own index region and output scratch,
// and checks every result against the golden table. This is the isolation
// contract the serving runtime relies on (and must hold under -race).
func TestConcurrentExecuteDisjointRegions(t *testing.T) {
	const dimms, dim = 8, 128 // one stripe per embedding
	n := testNode(t, dimms)
	tb, _ := embed.NewRandomTable(300, dim, 21)
	tableBase, _ := n.Alloc(uint64(tb.Bytes()))
	uploadTable(t, n, tb, tableBase)

	const workers, count = 8, 16
	type job struct {
		rows    []int
		idxBase uint64
		outBase uint64
	}
	jobs := make([]job, workers)
	for w := range jobs {
		rng := rand.New(rand.NewSource(int64(w) + 100))
		rows := make([]int, count)
		for i := range rows {
			rows[i] = rng.Intn(tb.Rows())
		}
		out, err := n.Alloc(uint64(count * dim * 4))
		if err != nil {
			t.Fatal(err)
		}
		jobs[w] = job{rows: rows, idxBase: uint64(1<<18) + uint64(w)*4096, outBase: out}
	}

	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			j := jobs[w]
			idx := make([]int32, count)
			for i, r := range j.rows {
				idx[i] = int32(r)
			}
			if err := n.LoadIndices(j.idxBase, idx); err != nil {
				errs[w] = err
				return
			}
			errs[w] = n.Execute(isa.Program{
				isa.Gather(tableBase/64, j.idxBase/64, j.outBase/64, uint32(count)),
			})
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for w, j := range jobs {
		want, _ := tb.Gather(j.rows)
		gotVals, err := n.ReadFloats(j.outBase, count*dim)
		if err != nil {
			t.Fatal(err)
		}
		got := tensor.MustFromSlice(gotVals, count, dim)
		if !tensor.Equal(got, want) {
			t.Fatalf("worker %d: concurrent GATHER differs from golden model", w)
		}
	}
}

// TestCoreStatsExactUnderConcurrency: readers hold each core's lock shared
// and a SCATTER_ADD holds it alone, so the cores' counters take no lock,
// yet nothing is lost. N goroutines run M four-instruction read programs
// each while another applies K scatter-adds to the table they gather from
// and a fourth samples Stats; once all are done, Node.Stats must equal the
// sum of what each instruction counts on each DIMM.
func TestCoreStatsExactUnderConcurrency(t *testing.T) {
	const dimms, dim, count = 4, 64, 16 // one stripe per row
	const N, M, K = 4, 50, 50
	n := testNode(t, dimms)
	tb, _ := embed.NewRandomTable(256, dim, 5)
	table, _ := n.Alloc(uint64(tb.Bytes()))
	uploadTable(t, n, tb, table)
	rowBytes := uint64(dim * 4)
	alloc := func(bytes uint64) uint64 {
		base, err := n.Alloc(bytes)
		if err != nil {
			t.Fatal(err)
		}
		return base / isa.BlockBytes
	}
	// Each goroutine, the scatter-adder included, gets its own index list:
	// rows 0, 16, 32, ... 240.
	idx := make([]int32, count)
	for i := range idx {
		idx[i] = int32(i * 16)
	}
	idxBase := func(g int) uint64 {
		base := uint64(1<<18) + uint64(g)*4096
		if err := n.LoadIndices(base, idx); err != nil {
			t.Fatal(err)
		}
		return base / isa.BlockBytes
	}
	grads := make([]float32, count*dim)
	for i := range grads {
		grads[i] = 0.25
	}
	gradBase := alloc(count * rowBytes)
	if err := n.WriteFloats(gradBase*isa.BlockBytes, grads); err != nil {
		t.Fatal(err)
	}
	tbl := table / isa.BlockBytes
	scatter := isa.Program{isa.ScatterAdd(tbl, idxBase(N), gradBase, count)}

	var wg sync.WaitGroup
	errs := make([]error, N+1)
	for g := 0; g < N; g++ {
		a, b, c, d := alloc(count*rowBytes), alloc(count*rowBytes), alloc(count*rowBytes), alloc(count/2*rowBytes)
		ib := idxBase(g)
		prog := isa.Program{
			isa.Gather(tbl, ib, a, count),
			isa.Gather(tbl, ib, b, count),
			isa.Reduce(isa.RAdd, a, b, c, count),
			isa.Average(a, 2, d, count/2),
		}
		wg.Add(1)
		go func(err *error) {
			defer wg.Done()
			for m := 0; m < M && *err == nil; m++ {
				*err = n.Execute(prog)
			}
		}(&errs[g])
	}
	wg.Add(1)
	go func(err *error) {
		defer wg.Done()
		for k := 0; k < K && *err == nil; k++ {
			*err = n.Execute(scatter)
		}
	}(&errs[N])
	stop := make(chan struct{})
	sampled := make(chan error, 1)
	go func() {
		var last uint64
		for {
			select {
			case <-stop:
				sampled <- nil
				return
			default:
			}
			s := n.Stats()
			if s.Instructions < last {
				sampled <- fmt.Errorf("Instructions went back from %d to %d", last, s.Instructions)
				return
			}
			last = s.Instructions
			runtime.Gosched()
		}
	}()
	wg.Wait()
	close(stop)
	if err := <-sampled; err != nil {
		t.Fatal(err)
	}
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}

	// What one core counts per instruction (nmp.Core.retire): Count blocks
	// written each; GATHER reads Count and one index block per 16 indices,
	// REDUCE reads two operands and does one ALU op per block pair,
	// AVERAGE of group 2 reads 2*Count and does 3*Count ALU ops,
	// SCATTER_ADD reads row and gradient and adds them.
	gather := nmp.Stats{Instructions: 1, BlocksRead: count, BlocksWritten: count, SharedReads: 1}
	reduce := nmp.Stats{Instructions: 1, BlocksRead: 2 * count, BlocksWritten: count, ALUBlockOps: count}
	average := nmp.Stats{Instructions: 1, BlocksRead: count, BlocksWritten: count / 2, ALUBlockOps: 3 * count / 2}
	scatterAdd := nmp.Stats{Instructions: 1, BlocksRead: 2 * count, BlocksWritten: count, SharedReads: 1, ALUBlockOps: count}
	var want nmp.Stats
	add := func(s nmp.Stats, times uint64) {
		want.Instructions += s.Instructions * times
		want.BlocksRead += s.BlocksRead * times
		want.BlocksWritten += s.BlocksWritten * times
		want.SharedReads += s.SharedReads * times
		want.ALUBlockOps += s.ALUBlockOps * times
	}
	progs := uint64(dimms * N * M)
	add(gather, 2*progs)
	add(reduce, progs)
	add(average, progs)
	add(scatterAdd, dimms*K)
	if got := n.Stats(); got != want {
		t.Fatalf("Stats after the run:\n got  %+v\n want %+v", got, want)
	}
}
