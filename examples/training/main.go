// Training: exercise the SCATTER_ADD TensorISA extension — the training
// direction the paper leaves to future work. A toy embedding-training loop
// runs entirely against the TensorNode: forward embedding lookups execute
// near-memory (GATHER/AVERAGE), and the embedding-table gradient updates
// accumulate near-memory too (SCATTER_ADD), so neither the gathered
// embeddings nor the per-row gradients ever cross the interconnect
// un-reduced.
package main

import (
	"fmt"
	"log"

	"tensordimm"
	"tensordimm/internal/tensor"
)

func main() {
	nd, err := tensordimm.NewNode(8, 32<<20)
	if err != nil {
		log.Fatal(err)
	}
	cfg := tensordimm.Facebook()
	cfg.Tables = 2 // shrink to demo size
	cfg.TableRows = 500
	cfg.EmbDim = 128
	cfg.Reduction = 4
	cfg.Hidden = []int{32, 16}
	cfg.FCLayers = 2

	model, err := tensordimm.BuildModel(cfg, 7)
	if err != nil {
		log.Fatal(err)
	}
	dep, err := tensordimm.Deploy(model, nd, 8)
	if err != nil {
		log.Fatal(err)
	}
	gen, err := tensordimm.NewWorkload(cfg.TableRows, tensordimm.Zipfian, 3)
	if err != nil {
		log.Fatal(err)
	}

	const batch, steps, lr = 4, 5, 0.05
	fmt.Printf("training %d steps of batch %d on %s (2 tables x %d rows x %d dims)\n\n",
		steps, batch, cfg.Name, cfg.TableRows, cfg.EmbDim)

	// The pooled [batch, tables*dim] embeddings the node hands back, reused
	// by every forward pass.
	emb := tensordimm.NewTensor(batch, cfg.Tables*cfg.EmbDim)
	for step := 0; step < steps; step++ {
		indices := gen.Batch(cfg.Tables, batch, cfg.Reduction)

		// Forward: embedding layer near-memory, MLP on the host/GPU.
		if err := dep.RunEmbeddingInto(emb.Data(), indices, batch); err != nil {
			log.Fatal(err)
		}
		probs, err := model.InferFromEmbeddings(emb)
		if err != nil {
			log.Fatal(err)
		}

		// Toy objective: push every probability toward 1. The "gradient"
		// per looked-up row is lr * (1 - p) broadcast over the embedding —
		// enough to drive real SCATTER_ADD traffic with real data hazards
		// (Zipfian batches repeat hot rows).
		var loss float64
		for t := 0; t < cfg.Tables; t++ {
			rows := indices[t]
			grads := tensor.New(len(rows), cfg.EmbDim)
			for i, row := range grads.Data() {
				_ = row
				g := lr * (1 - probs.At((i/cfg.EmbDim)/cfg.Reduction%batch, 0))
				grads.Data()[i] = g
			}
			up := tensordimm.TableUpdate{Table: t, Rows: rows, Grads: grads}
			if err := dep.ApplyUpdates([]tensordimm.TableUpdate{up}); err != nil {
				log.Fatal(err)
			}
			// The deployment keeps no copy of the tables, so the model it
			// was built from is this program's golden: it absorbs every
			// acknowledged update in the same order.
			tensordimm.AccumulateGolden(model.Embedding.Tables[t], up)
		}
		for i := 0; i < batch; i++ {
			p := float64(probs.At(i, 0))
			loss += (1 - p) * (1 - p)
		}
		fmt.Printf("step %d: loss %.5f\n", step, loss/batch)
	}

	// Verify: node tables and golden tables must agree bit for bit after
	// all the near-memory updates.
	indices := gen.Batch(cfg.Tables, batch, cfg.Reduction)
	if err := dep.RunEmbeddingInto(emb.Data(), indices, batch); err != nil {
		log.Fatal(err)
	}
	want, err := model.Embedding.Forward(indices, batch)
	if err != nil {
		log.Fatal(err)
	}
	if !tensor.Equal(emb, want) {
		log.Fatal("MISMATCH: node tables diverged from golden after training")
	}
	s := nd.Stats()
	fmt.Printf("\nOK: tables consistent after near-memory training\n")
	fmt.Printf("datapath totals: %d instructions, %d blocks read, %d written, %d ALU ops\n",
		s.Instructions, s.BlocksRead, s.BlocksWritten, s.ALUBlockOps)
}
