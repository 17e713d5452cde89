package server_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"biaslab/internal/server"
)

// FuzzCanonicalize drives the daemon's untrusted input surface: a JobSpec
// decoded from arbitrary JSON must canonicalize without panicking; a
// canonical spec must re-canonicalize to itself and to the same content
// key; and a rejected spec must never yield a key.
func FuzzCanonicalize(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"run","bench":"hmmer","level":"O3","env_bytes":4000}`,
		`{"kind":"sweep-env","bench":"hmmer","machine":"p4","step":256,"adaptive":true}`,
		`{"kind":"sweep-pad","bench":"mcf","size":"test"}`,
		`{"kind":"sweep-base","bench":"mcf","adaptive":true,"audit_allow":["single-setup"]}`,
		`{"kind":"sweep-link","bench":"mcf","orders":1099511627776}`,
		`{"kind":"sweep-tenant","bench":"sjeng","co_level":"O3","quantum":4096}`,
		`{"kind":"randomize","bench":"sjeng","n":32,"co_random":true,"context":"serving"}`,
		`{"kind":"randomize","bench":"hmmer","n":-3,"tol":0.005,"co_bench":"milc"}`,
		`{"kind":"experiment","experiment":"F1","size":"ref"}`,
		`{"kind":"sweep-tenant","bench":"sjeng","co_bench":"milc"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var spec server.JobSpec
		if err := json.Unmarshal(raw, &spec); err != nil {
			return
		}
		canonical, err := spec.Canonicalize()
		key, keyErr := server.Key(spec)
		if err != nil {
			if keyErr == nil {
				t.Fatalf("rejected spec %+v (%v) yielded key %s", spec, err, key)
			}
			return
		}
		if keyErr != nil {
			t.Fatalf("canonical spec %+v has no key: %v", canonical, keyErr)
		}
		again, err := canonical.Canonicalize()
		if err != nil {
			t.Fatalf("canonical spec %+v rejected on re-canonicalization: %v", canonical, err)
		}
		if !reflect.DeepEqual(again, canonical) {
			t.Fatalf("canonicalization is not idempotent:\n%+v\n%+v", canonical, again)
		}
		if k, _ := server.Key(canonical); k != key {
			t.Fatalf("canonical spec keys to %s, its source to %s", k, key)
		}
	})
}

// TestCanonicalizeAcceptsLimits: the point-count bounds reject only what
// exceeds them.
func TestCanonicalizeAcceptsLimits(t *testing.T) {
	for _, spec := range []server.JobSpec{
		{Kind: server.KindSweepLink, Bench: "mcf", Orders: 1024},
		{Kind: server.KindRandomize, Bench: "mcf", N: 4096},
	} {
		if _, err := server.Key(spec); err != nil {
			t.Errorf("Key(%+v): %v", spec, err)
		}
	}
}
