package loader

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
)

// reloadMatches loads exe under opts, calls dirty on the image, releases
// it and checks that the next Load of the same geometry is byte-identical
// to the first.
func reloadMatches(t *testing.T, opts Options, dirty func(mem []byte)) {
	t.Helper()
	exe := buildExe(t)
	img, err := Load(exe, opts)
	if err != nil {
		t.Fatal(err)
	}
	pristine := append([]byte(nil), img.Mem...)
	dirty(img.Mem)
	img.Release()
	again, err := Load(exe, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Release()
	if len(again.Mem) != len(pristine) {
		t.Fatalf("reloaded image size %d != %d", len(again.Mem), len(pristine))
	}
	for i := range pristine {
		if again.Mem[i] != pristine[i] {
			t.Fatalf("byte %#x differs after buffer recycling: %#x vs %#x", i, again.Mem[i], pristine[i])
		}
	}
}

// TestReleaseClearsWriteAcrossChunkBoundary: a store that straddles a
// 4 KiB boundary dirties two chunks, and both must be cleared — including
// when only one byte lands on either side.
func TestReleaseClearsWriteAcrossChunkBoundary(t *testing.T) {
	for _, before := range []int{1, 4, 7} {
		reloadMatches(t, Options{}, func(mem []byte) {
			at := 5*clearChunk - before
			for i := at; i < at+8; i++ {
				mem[i] = 0xff
			}
		})
	}
}

// TestReleaseClearsPartialLastChunk: a MemSize that is not a multiple of
// 4 KiB ends in a short chunk, which Release must compare and clear like
// any other.
func TestReleaseClearsPartialLastChunk(t *testing.T) {
	const size = 8<<20 + 100
	reloadMatches(t, Options{MemSize: size}, func(mem []byte) {
		if len(mem) != size {
			t.Fatalf("image size %d, want %d", len(mem), size)
		}
		mem[size-1] = 1
		mem[size-100] = 2
	})
}

// TestFreeListSurvivesGC: a released buffer comes back to the next Load of
// its size even after garbage collections, which would have emptied a
// sync.Pool and handed the next Load a buffer the runtime zeroes again.
func TestFreeListSurvivesGC(t *testing.T) {
	exe := buildExe(t)
	for _, geom := range []Options{{}, coRunnerGeometry} {
		img, err := Load(exe, geom)
		if err != nil {
			t.Fatal(err)
		}
		first := &img.Mem[0]
		img.Release()
		runtime.GC()
		runtime.GC()
		again, err := Load(exe, geom)
		if err != nil {
			t.Fatal(err)
		}
		if &again.Mem[0] != first {
			t.Errorf("mem size %d: released buffer did not come back after GC", len(again.Mem))
		}
		again.Release()
	}
}

// TestFreeListHoldsPeakLoads: the free list needs no bound, because Load
// allocates only when the list is empty. After k loads at once are
// released the list holds exactly those k buffers, and k loads at once
// again take the same buffers back.
func TestFreeListHoldsPeakLoads(t *testing.T) {
	exe := buildExe(t)
	geom := Options{MemSize: 8 << 20}
	DropFreeList(geom.MemSize)
	const k = 3
	used := map[*byte]bool{}
	for round := 1; round <= 2; round++ {
		imgs := make([]*Image, k)
		for i := range imgs {
			img, err := Load(exe, geom)
			if err != nil {
				t.Fatal(err)
			}
			imgs[i] = img
			if round == 2 && !used[&img.Mem[0]] {
				t.Errorf("round 2, load %d: allocated a buffer while released ones were free", i)
			}
			used[&img.Mem[0]] = true
		}
		for _, img := range imgs {
			img.Release()
		}
		if n := FreeLen(geom.MemSize); n != k {
			t.Fatalf("round %d: free list holds %d buffers after %d loads at once, want %d", round, n, k, k)
		}
	}
}

// TestConcurrentLoadRelease: Load/Release pairs from several goroutines
// share the free lists; every Load must still see a pristine image. Run
// under -race it also checks the lists' locking.
func TestConcurrentLoadRelease(t *testing.T) {
	exe := buildExe(t)
	opts := Options{MemSize: 8 << 20, Env: []string{"A=1"}, Args: []string{"x"}}
	ref, err := Load(exe, opts)
	if err != nil {
		t.Fatal(err)
	}
	pristine := append([]byte(nil), ref.Mem...)
	ref.Release()

	workers := runtime.GOMAXPROCS(0) + 2
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				img, err := Load(exe, opts)
				if err != nil {
					errs <- err.Error()
					return
				}
				if !bytes.Equal(img.Mem, pristine) {
					errs <- "loaded image differs from a fresh one"
					return
				}
				for off := (w*131 + i*977) % clearChunk; off < len(img.Mem); off += 1 << 20 {
					img.Mem[off] = byte(w + i + 1)
				}
				img.Release()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
