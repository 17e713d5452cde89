//go:build unix

package loader

import "syscall"

// newBuf maps a zeroed buffer of size bytes anonymously from the OS. Its
// pages read as the kernel's zero page until a run writes them. If the
// OS refuses the mapping, the buffer comes from the Go heap instead.
func newBuf(size uint64) []byte {
	mem, err := syscall.Mmap(-1, 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]byte, size)
	}
	return mem
}
