package main

import (
	"runtime"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// The benchmark's sample buffers live outside the Go heap. On the heap they
// count toward the heap size that paces the program's garbage collector:
// the latency sample buffers of a 10-second run (1.4 MB) made GC cycles rarer
// and moved rpc-batch's p99 latency with the length of the run, and they
// counted in rss_mb. Mapped on their own they do neither.

// mapping owns memory mapped by offHeap; the memory goes back to the OS
// once its mapping is unreachable. Whatever holds a slice of the memory
// must hold its mapping too.
type mapping struct{ mem []byte }

// offHeap returns n zeroed counters in memory mapped outside the Go heap,
// and the mapping that owns it. The garbage collector does not scan that
// memory, which is why it holds no pointers. If the mapping fails it
// returns heap memory and a nil mapping.
func offHeap(n int) ([]atomic.Uint32, *mapping) {
	mem, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(atomic.Uint32{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil || n == 0 {
		return make([]atomic.Uint32, n), nil
	}
	m := &mapping{mem}
	runtime.SetFinalizer(m, func(m *mapping) { _ = syscall.Munmap(m.mem) }) // fails only for a bad range
	return unsafe.Slice((*atomic.Uint32)(unsafe.Pointer(&mem[0])), n), m
}
