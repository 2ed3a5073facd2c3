//go:build !linux

package dimm

// newStore returns n zeroed bytes of rank-local DRAM. Only Linux is asked
// for huge pages (store_linux.go); elsewhere a store is a plain slice.
func newStore(n uint64) []byte { return make([]byte, n) }
