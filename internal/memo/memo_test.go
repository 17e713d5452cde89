package memo

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentGetsBuildOnce: N callers of one key, all arriving while
// the first build is still running, share that one build.
func TestConcurrentGetsBuildOnce(t *testing.T) {
	const n = 16
	m := New[string, int](4)
	var builds atomic.Int32
	release := make(chan struct{})
	var started, done sync.WaitGroup
	started.Add(n)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer done.Done()
			started.Done()
			v, err := m.Get("k", func() (int, error) {
				builds.Add(1)
				<-release
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Get = %d, %v; want 42, nil", v, err)
			}
		}()
	}
	started.Wait()
	// Give every caller time to reach Get. A late one is served the
	// stored value and the test still holds; callers that arrive during
	// the build are what exercise the shared wait.
	time.Sleep(10 * time.Millisecond)
	close(release)
	done.Wait()
	if got := builds.Load(); got != 1 {
		t.Errorf("%d concurrent Gets ran build %d times, want 1", n, got)
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d, want 1", m.Len())
	}
}

// TestFailedBuildIsNotStored: an error is returned to the caller that
// built, stored for nobody, and a caller waiting on the failed build
// builds again.
func TestFailedBuildIsNotStored(t *testing.T) {
	m := New[int, string](4)
	boom := errors.New("boom")
	entered := make(chan struct{})
	fail := make(chan struct{})
	leader := make(chan error)
	go func() {
		_, err := m.Get(1, func() (string, error) {
			close(entered)
			<-fail
			return "", boom
		})
		leader <- err
	}()
	<-entered

	waiter := make(chan string)
	go func() {
		v, err := m.Get(1, func() (string, error) { return "rebuilt", nil })
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		waiter <- v
	}()
	// Give the waiter time to reach Get; arriving after the failure it
	// builds all the same, but only one waiting on it tests the retry.
	time.Sleep(10 * time.Millisecond)
	close(fail)
	if err := <-leader; !errors.Is(err, boom) {
		t.Errorf("leader got %v, want %v", err, boom)
	}
	if v := <-waiter; v != "rebuilt" {
		t.Errorf("waiter got %q, want its own build's %q", v, "rebuilt")
	}

	if _, err := m.Get(2, func() (string, error) { return "", boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	builds := 0
	v, err := m.Get(2, func() (string, error) { builds++; return "ok", nil })
	if err != nil || v != "ok" || builds != 1 {
		t.Errorf("after a failure Get = %q, %v with %d builds; want a fresh build", v, err, builds)
	}
}

// TestPanickingBuildReleasesWaiters: a build that panics stores nothing
// and does not leave later callers waiting on it forever.
func TestPanickingBuildReleasesWaiters(t *testing.T) {
	m := New[int, int](4)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the build's panic did not reach its caller")
			}
		}()
		m.Get(1, func() (int, error) { panic("build") })
	}()
	v, err := m.Get(1, func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Errorf("after a panic Get = %d, %v; want 7, nil", v, err)
	}
}

// TestCapBoundsLen: Len never exceeds the cap, and an evicted key is
// rebuilt on its next Get.
func TestCapBoundsLen(t *testing.T) {
	const cap = 3
	m := New[int, int](cap)
	builds := map[int]int{}
	get := func(k int) {
		v, err := m.Get(k, func() (int, error) { builds[k]++; return k * k, nil })
		if err != nil || v != k*k {
			t.Fatalf("Get(%d) = %d, %v", k, v, err)
		}
		if m.Len() > cap {
			t.Fatalf("Len = %d after Get(%d), cap %d", m.Len(), k, cap)
		}
	}
	for k := 0; k < 10; k++ {
		get(k)
	}
	if m.Len() != cap {
		t.Errorf("Len = %d, want %d", m.Len(), cap)
	}
	evicted := 0
	for k := 0; k < 10; k++ {
		get(k)
		if builds[k] == 2 {
			evicted++
		}
	}
	if evicted < 10-cap {
		t.Errorf("%d of 10 keys rebuilt after filling a cap of %d, want at least %d", evicted, cap, 10-cap)
	}
}

// TestConcurrentKeysRace: many keys and callers at a small cap, so
// builds, waits and evictions interleave; run under -race.
func TestConcurrentKeysRace(t *testing.T) {
	m := New[int, int](4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % 9
				if v, err := m.Get(k, func() (int, error) { return -k, nil }); err != nil || v != -k {
					t.Errorf("Get(%d) = %d, %v", k, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if m.Len() > 4 {
		t.Errorf("Len = %d, cap 4", m.Len())
	}
}

// TestSliceKey: equal slices share a key and unequal ones do not, even
// where a naive concatenation of the elements would collide.
func TestSliceKey(t *testing.T) {
	same := [][2][]int{
		{nil, {}},
		{{2, 0, 1}, {2, 0, 1}},
	}
	for _, c := range same {
		if SliceKey(c[0]) != SliceKey(c[1]) {
			t.Errorf("SliceKey(%v) != SliceKey(%v)", c[0], c[1])
		}
	}
	differ := [][2][]uint64{
		{nil, {0}},
		{{1, 23}, {12, 3}},
		{{1 << 40}, {0, 1 << 40}},
		{{128}, {0, 1}},
		{{1, 2}, {2, 1}},
	}
	for _, c := range differ {
		if SliceKey(c[0]) == SliceKey(c[1]) {
			t.Errorf("SliceKey(%v) == SliceKey(%v)", c[0], c[1])
		}
	}
}
