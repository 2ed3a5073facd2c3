//go:build linux

package dimm

import (
	"syscall"
	"unsafe"
)

// hugePage is the transparent-huge-page size a rank store is aligned to.
const hugePage = 2 << 20

// newStore returns n zeroed bytes of rank-local DRAM.
//
// A store of at least one huge page is cut out of a GC-owned slice one huge
// page longer than asked for: it starts on a 2 MiB boundary, len == cap == n
// so the slack cannot be reached, and its whole 2 MiB pages are advised
// MADV_HUGEPAGE before anything writes them (this box runs THP in `madvise`
// mode and the Go heap never asks). A random GATHER then walks one TLB entry
// per 2 MiB of table instead of one per 4 KiB. The store is deliberately not
// an mmap: a slice Local() returned may outlive Node.Close, and GC-owned
// bytes keep it valid where an munmap would turn it into a SIGSEGV.
func newStore(n uint64) []byte {
	if n < hugePage {
		return make([]byte, n)
	}
	buf := make([]byte, n+hugePage)
	off := (hugePage - uintptr(unsafe.Pointer(&buf[0]))%hugePage) % hugePage
	store := buf[off : off+uintptr(n) : off+uintptr(n)]
	// Advice only: a kernel without THP, or one that cannot find a free huge
	// page, backs the store with 4 KiB pages — what a plain make gets.
	_ = syscall.Madvise(store[:n/hugePage*hugePage], syscall.MADV_HUGEPAGE)
	return store
}
