package integration

import (
	"fmt"
	"testing"

	"biaslab/internal/bench"
	"biaslab/internal/compiler"
	"biaslab/internal/linker"
	"biaslab/internal/loader"
	"biaslab/internal/machine"
)

// TestFastPathMatchesReference is the equivalence proof for the optimized
// execute engine: every benchmark × {O2, O3} × {gcc, icc} × all three
// machine models runs once through the predecoded fast path and once
// through the retained straightforward reference stepper, and every
// counter, the checksum, the output and the exit code must be
// bit-identical. Any divergence means an "optimization" changed a measured
// value — the one thing this repo must never do.
func TestFastPathMatchesReference(t *testing.T) {
	size := bench.SizeSmall
	if testing.Short() {
		size = bench.SizeTest
	}
	levels := []compiler.Level{compiler.O2, compiler.O3}
	personalities := []compiler.Personality{compiler.GCC, compiler.ICC}
	models := []string{"p4", "core2", "m5"}
	env := loader.SyntheticEnv(512)

	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			for _, pers := range personalities {
				for _, lvl := range levels {
					cfg := compiler.Config{Level: lvl, Personality: pers}
					objs, _, err := compiler.Compile(b.Sources(size), cfg)
					if err != nil {
						t.Fatalf("%s: compile: %v", cfg, err)
					}
					exe, err := linker.Link(objs, linker.Options{})
					if err != nil {
						t.Fatalf("%s: link: %v", cfg, err)
					}
					for _, model := range models {
						mc, ok := machine.ConfigByName(model)
						if !ok {
							t.Fatalf("unknown machine %s", model)
						}
						label := fmt.Sprintf("%s/%s", cfg, model)
						// Separate images: a run mutates its memory.
						load := func() *loader.Image {
							img, err := loader.Load(exe, loader.Options{Env: env, Args: []string{b.Name}})
							if err != nil {
								t.Fatalf("%s: load: %v", label, err)
							}
							return img
						}
						fast, err := machine.New(mc).Run(load(), 1<<31)
						if err != nil {
							t.Fatalf("%s: fast run: %v", label, err)
						}
						ref, err := machine.New(mc).RunReference(load(), 1<<31)
						if err != nil {
							t.Fatalf("%s: reference run: %v", label, err)
						}
						if fast.Counters != ref.Counters {
							t.Errorf("%s: counters diverge:\nfast: %+v\nref:  %+v", label, fast.Counters, ref.Counters)
						}
						if fast.Checksum != ref.Checksum || fast.ExitCode != ref.ExitCode {
							t.Errorf("%s: checksum/exit diverge: %d/%d vs %d/%d",
								label, fast.Checksum, fast.ExitCode, ref.Checksum, ref.ExitCode)
						}
						if len(fast.Output) != len(ref.Output) {
							t.Errorf("%s: output length diverges: %d vs %d", label, len(fast.Output), len(ref.Output))
						} else {
							for i := range fast.Output {
								if fast.Output[i] != ref.Output[i] {
									t.Errorf("%s: output[%d] diverges: %d vs %d", label, i, fast.Output[i], ref.Output[i])
									break
								}
							}
						}
					}
				}
			}
		})
	}
}
