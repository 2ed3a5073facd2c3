package main

import (
	"fmt"
	"math"
	"math/rand"
)

const verifyRequests = 256

// verifyTally counts what the correctness gate compared.
type verifyTally struct {
	checked  int // replies compared bit-for-bit with the golden model
	mismatch int // replies that differed (or failed)
	first    string
}

// verify sends verifyRequests seeded reads through the path the generators
// use — uniform rows over the whole table, so cold rows are checked as
// well as the hot set — and compares every reply bit-for-bit with the
// harness's golden model. It must run at quiescence: no update in flight.
func (st *stack) verify(e *env, phase string, tally *verifyTally) error {
	d := st.def
	embed := st.embed
	if st.addr != "" {
		cl, err := st.dial()
		if err != nil {
			return err
		}
		defer cl.Close()
		embed = cl.EmbedInto
	}
	rng := rand.New(rand.NewSource(e.seed*7919 + 4))
	rows := make([][]int, d.model.Tables)
	var dst []float32
	for i := 0; i < verifyRequests; i++ {
		batch := 1 + rng.Intn(min(8, d.batch))
		for t := range rows {
			rows[t] = rows[t][:0]
			for j := 0; j < batch*d.model.Reduction; j++ {
				rows[t] = append(rows[t], rng.Intn(d.model.TableRows))
			}
		}
		want, err := st.golden.Embedding.Forward(rows, batch)
		if err != nil {
			return fmt.Errorf("%s: golden forward: %w", phase, err)
		}
		exp := want.Data()
		if e.corrupt {
			exp[0] = math.Float32frombits(math.Float32bits(exp[0]) ^ 1)
		}
		got, err := embed(dst, rows, batch)
		tally.checked++
		bad := ""
		switch {
		case err != nil:
			bad = err.Error()
		case len(got) != len(exp):
			bad = fmt.Sprintf("%d values, want %d", len(got), len(exp))
		default:
			dst = got
			for k := range exp {
				if math.Float32bits(got[k]) != math.Float32bits(exp[k]) {
					bad = fmt.Sprintf("value %d is %v, golden %v", k, got[k], exp[k])
					break
				}
			}
		}
		if bad != "" {
			tally.mismatch++
			if tally.first == "" {
				tally.first = fmt.Sprintf("%s: request %d (batch %d): %s", phase, i, batch, bad)
			}
		}
	}
	return nil
}
