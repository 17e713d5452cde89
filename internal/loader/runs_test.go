package loader_test

import (
	"bytes"
	"context"
	"testing"

	"biaslab/internal/bench"
	"biaslab/internal/core"
	"biaslab/internal/linker"
	"biaslab/internal/loader"
	"biaslab/internal/tenancy"
)

// TestRealRunsLeaveRecycledBuffersPristine runs a solo measurement and a
// co-run through core.Runner on each shipped machine, then checks that the
// next Load of each geometry — which receives a buffer those runs wrote
// and released — is byte-identical to a Load into a new buffer.
func TestRealRunsLeaveRecycledBuffersPristine(t *testing.T) {
	ctx := context.Background()
	r := core.NewRunner(bench.SizeTest)
	subject, _ := bench.ByName("mcf")
	coBench, _ := bench.ByName("lbm")
	for _, mach := range []string{"core2", "p4", "m5"} {
		solo := core.DefaultSetup(mach)
		co := solo
		co.CoRunner = core.CoRunner{Bench: coBench.Name}
		for _, s := range []core.Setup{solo, co} {
			if _, err := r.Measure(ctx, subject, s); err != nil {
				t.Fatal(err)
			}
		}
		subjExe, err := r.Executable(subject, solo)
		if err != nil {
			t.Fatal(err)
		}
		coSetup, err := core.CoRunnerSetup(co)
		if err != nil {
			t.Fatal(err)
		}
		coExe, err := r.Executable(coBench, coSetup)
		if err != nil {
			t.Fatal(err)
		}
		env := loader.SyntheticEnv(core.DefaultEnvBytes)
		for _, g := range []struct {
			exe  *linker.Executable
			opts loader.Options
			size uint64
		}{
			{subjExe, loader.Options{Env: env, Args: []string{subject.Name}}, loader.DefaultMemSize},
			{coExe, tenancy.CoRunnerLoadOptions(env, []string{coBench.Name}), tenancy.CoRunnerMemSize},
		} {
			if loader.FreeLen(g.size) == 0 {
				t.Fatalf("%s: no released %d-byte buffer after the runs", mach, g.size)
			}
			recycled, err := loader.Load(g.exe, g.opts)
			if err != nil {
				t.Fatal(err)
			}
			loader.DropFreeList(g.size)
			fresh, err := loader.Load(g.exe, g.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(recycled.Mem, fresh.Mem) {
				for i := range fresh.Mem {
					if recycled.Mem[i] != fresh.Mem[i] {
						t.Fatalf("%s: %d-byte image: byte %#x is %#x in a recycled buffer, %#x in a new one",
							mach, g.size, i, recycled.Mem[i], fresh.Mem[i])
					}
				}
			}
			recycled.Release()
			fresh.Release()
		}
	}
}
