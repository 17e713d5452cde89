// Package memo is the lab's one bounded memo. Every cache of a pure,
// deterministic build — compiled objects, linked executables, predecoded
// text, synthetic environments, oracle plans — is a Map, so the decisions
// such a cache makes (share concurrent builds, never keep a failure, evict
// arbitrarily at a cap) are made here once.
package memo

import (
	"encoding/binary"
	"sync"
)

// Map memoizes build results by key, holding at most its limit (the
// memo's cap). A Map is safe for concurrent use; its values are shared
// between callers, so they must be treated as read-only.
type Map[K comparable, V any] struct {
	limit    int
	mu       sync.Mutex
	done     map[K]V
	building map[K]chan struct{} // closed when the build for the key ends
}

// New returns an empty Map that holds at most limit values.
func New[K comparable, V any](limit int) *Map[K, V] {
	return &Map[K, V]{limit: limit, done: map[K]V{}, building: map[K]chan struct{}{}}
}

// Get returns the value stored for key, or builds and stores it. Concurrent
// callers of one key share a single build. A failed build (an error or a
// panic) stores nothing: each caller waiting on it builds again. At the
// limit an arbitrary value is evicted, which is safe because a build is a
// pure function of its key — eviction costs a rebuild, never a different
// result.
func (m *Map[K, V]) Get(key K, build func() (V, error)) (v V, err error) {
	m.mu.Lock()
	for {
		if v, ok := m.done[key]; ok {
			m.mu.Unlock()
			return v, nil
		}
		wait, ok := m.building[key]
		if !ok {
			break
		}
		m.mu.Unlock()
		<-wait
		m.mu.Lock()
	}
	wait := make(chan struct{})
	m.building[key] = wait
	m.mu.Unlock()

	built := false
	defer func() {
		m.mu.Lock()
		delete(m.building, key)
		if built {
			if len(m.done) >= m.limit {
				//determlint:allow memo eviction choice never reaches a result
				for k := range m.done {
					delete(m.done, k)
					break
				}
			}
			m.done[key] = v
		}
		m.mu.Unlock()
		close(wait)
	}()
	v, err = build()
	built = err == nil
	return v, err
}

// Len reports how many values m holds.
func (m *Map[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.done)
}

// SliceKey encodes s as a comparable map key: two slices get the same key
// exactly when their elements are equal. A nil and an empty slice share
// the key "".
func SliceKey[T ~int | ~uint64](s []T) string {
	b := make([]byte, 0, 2*len(s))
	for _, v := range s {
		b = binary.AppendUvarint(b, uint64(v))
	}
	return string(b)
}
