//go:build !unix

package loader

// newBuf returns a zeroed buffer of size bytes from the Go heap, on
// systems without anonymous mmap.
func newBuf(size uint64) []byte {
	return make([]byte, size)
}
