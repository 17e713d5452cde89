package loader

// FreeLen reports how many released buffers of size bytes are waiting on
// the free list.
func FreeLen(size uint64) int {
	freeMu.Lock()
	defer freeMu.Unlock()
	return len(freeBufs[size])
}

// DropFreeList empties the free list for size, so the next Load of that
// size receives a newly allocated buffer.
func DropFreeList(size uint64) {
	freeMu.Lock()
	defer freeMu.Unlock()
	delete(freeBufs, size)
}
