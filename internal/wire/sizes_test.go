package wire

import (
	"math/rand"
	"testing"
)

// randGeom draws a small valid geometry.
func randGeom(rng *rand.Rand) Geometry {
	return Geometry{
		Tables:    1 + rng.Intn(4),
		Reduction: 1 + rng.Intn(3),
		Dim:       1 + rng.Intn(24),
		TableRows: 1 + rng.Intn(1000),
		MaxBatch:  1 + rng.Intn(8),
	}
}

// randEntry draws one update entry of n rows valid for g.
func randEntry(rng *rand.Rand, g Geometry, n int) Update {
	up := Update{Table: rng.Intn(g.Tables), Rows: make([]int, n), Grads: make([]float32, n*g.Dim)}
	for i := range up.Rows {
		up.Rows[i] = rng.Intn(g.TableRows)
	}
	return up
}

// TestFrameSizesMatchEncoders pins every frame-size helper to the length
// of its encoder's output, over random and maximal inputs: a sender that
// sizes a frame with the helper sizes exactly what goes on the wire.
func TestFrameSizesMatchEncoders(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 500; trial++ {
		g := randGeom(rng)
		maxRows := g.MaxBatch * g.Reduction
		for _, maximal := range []bool{false, true} {
			batch, rowsOf := 1+rng.Intn(g.MaxBatch), func() int { return 1 + rng.Intn(maxRows) }
			if maximal {
				batch, rowsOf = g.MaxBatch, func() int { return maxRows }
			}
			perTable := make([][]int, g.Tables)
			for i := range perTable {
				perTable[i] = make([]int, batch*g.Reduction)
			}
			req, resp := g.EmbedFrameBytes(batch)
			if n := len(AppendEmbed(nil, 1, 2, perTable, batch, g.Reduction)); n != req {
				t.Fatalf("%+v batch %d: EMBED encodes to %d B, EmbedFrameBytes says %d", g, batch, n, req)
			}
			if n := len(AppendEmbedResp(nil, 1, make([]float32, batch*g.Width()))); n != resp {
				t.Fatalf("%+v batch %d: EMBED_RESP encodes to %d B, EmbedFrameBytes says %d", g, batch, n, resp)
			}
			ups := make([]Update, 1+rng.Intn(5))
			rows := 0
			for i := range ups {
				ups[i] = randEntry(rng, g, rowsOf())
				rows += len(ups[i].Rows)
			}
			if n, want := len(AppendUpdate(nil, 1, 2, ups)), g.UpdateFrameBytes(OpUpdate, len(ups), rows); n != want {
				t.Fatalf("%+v: UPDATE of %d entries, %d rows encodes to %d B, UpdateFrameBytes says %d", g, len(ups), rows, n, want)
			}
			if n, want := len(AppendSync(nil, 1, 2, ups)), g.UpdateFrameBytes(OpSync, len(ups), rows); n != want {
				t.Fatalf("%+v: SYNC of %d entries, %d rows encodes to %d B, UpdateFrameBytes says %d", g, len(ups), rows, n, want)
			}
			up := ups[0]
			if n, want := len(AppendRestore(nil, 1, 2, maximal, up.Table, up.Rows, up.Grads)), g.UpdateFrameBytes(OpRestore, 1, len(up.Rows)); n != want {
				t.Fatalf("%+v: RESTORE of %d rows encodes to %d B, UpdateFrameBytes says %d", g, len(up.Rows), n, want)
			}
		}
	}
}

// TestMaxRestoreRowsFitsLimit pins MaxRestoreRows against the encoder: its
// row count never exceeds the request contract's cap, and whenever the
// frame limit rather than that cap sets the bound, that many rows encode
// within the limit and one more row does not.
func TestMaxRestoreRowsFitsLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	limitBound := 0
	for trial := 0; trial < 2000; trial++ {
		g := randGeom(rng)
		maxRows := g.MaxBatch * g.Reduction
		// Limits from below one row's frame to past a maximal frame.
		limit := HeaderBytes + rng.Intn(g.UpdateFrameBytes(OpRestore, 1, maxRows)+64)
		n := g.MaxRestoreRows(limit)
		if n < 1 || n > maxRows {
			t.Fatalf("%+v limit %d: MaxRestoreRows %d outside [1, %d]", g, limit, n, maxRows)
		}
		restore := func(rows int) int {
			up := randEntry(rng, g, rows)
			return len(AppendRestore(nil, 1, 2, true, up.Table, up.Rows, up.Grads))
		}
		if restore(1) > limit {
			// Not even one row fits: MaxRestoreRows floors at 1.
			if n != 1 {
				t.Fatalf("%+v limit %d: no row fits, MaxRestoreRows %d, want the floor 1", g, limit, n)
			}
			continue
		}
		if n == maxRows && restore(maxRows) <= limit {
			continue // the row cap sets the bound
		}
		limitBound++
		if got := restore(n); got > limit {
			t.Fatalf("%+v limit %d: %d rows encode to %d B, over the limit", g, limit, n, got)
		}
		if got := restore(n + 1); got <= limit {
			t.Fatalf("%+v limit %d: %d rows still fit in %d B, MaxRestoreRows said %d", g, limit, n+1, got, n)
		}
	}
	if limitBound < 500 {
		t.Fatalf("only %d of 2000 trials had the frame limit set the bound", limitBound)
	}
}
