package serve

import (
	"testing"

	"tensordimm/internal/isa"
	"tensordimm/internal/workload"
)

// TestWorkersBeyondQueueDepth: nothing is sized by the ratio of workers to
// queue slots any more, so a worker pool larger than the submission queue is
// accepted and serves.
func TestWorkersBeyondQueueDepth(t *testing.T) {
	cfg := testConfig(2, 2, 128, false, isa.RAdd)
	s, err := New(Config{Workers: queueDepth + 44}, newDeployment(t, cfg, 8, 2, 2))
	if err != nil {
		t.Fatalf("Workers %d rejected: %v", queueDepth+44, err)
	}
	gen, _ := workload.NewGenerator(cfg.TableRows, workload.Uniform, 1)
	pending, want := startReads(t, s, goldenModel(t, cfg), gen, 1, 2, 3)
	waitGolden(t, pending, want)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
