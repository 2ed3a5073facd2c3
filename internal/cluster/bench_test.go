package cluster_test

import (
	"testing"

	"tensordimm/internal/benchkit"
)

// BenchmarkClusterEmbed drives a 2-shard cluster with warm hot-row caches
// over the zero-allocation EmbedInto path; with -benchmem it pins
// 0 allocs/op in steady state. Extra metric: req/s.
func BenchmarkClusterEmbed(b *testing.B) { benchkit.ClusterEmbed(b) }

// BenchmarkClusterEmbedMiss is the same drive with the caches disabled:
// every read scatters to both shard servers and gathers from each, and
// that miss path, too, is pinned to 0 allocs/op.
func BenchmarkClusterEmbedMiss(b *testing.B) { benchkit.ClusterEmbedMiss(b) }
