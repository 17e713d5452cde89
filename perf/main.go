// Command perf is biaslab's checked-in benchmark: four workloads run end
// to end through the entry points the CLI and the daemon use, a traced
// run that breaks host time down by layer, and a comparison of two result
// files by the lab's own statistics.
//
// Usage:
//
//	perf run -workload sweep|corun|plan|service|all [-seed 1] [-seconds 12] [-runs 1] [-out FILE]
//	perf trace -workload W [-seed 1] [-seconds 12] [-out FILE] [-trace-dir DIR]
//	perf compare [-benchmark BENCHMARK.json] OLD.json NEW.json
//
// Run it from the repository root; perf/bench.sh builds it and runs it the
// way BENCHMARK.json's command does. See perf/README.md.
package main

import (
	"flag"
	"fmt"
	"os"
)

func newFlagSet(name string) *flag.FlagSet {
	return flag.NewFlagSet("perf "+name, flag.ContinueOnError)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  perf run     -workload sweep|corun|plan|service|all [-seed N] [-seconds S] [-runs N] [-out FILE]
  perf trace   -workload W [-seed N] [-seconds S] [-out FILE] [-trace-dir DIR]
  perf compare [-benchmark BENCHMARK.json] OLD.json NEW.json`)
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	args := os.Args[2:]
	switch os.Args[1] {
	case "run":
		os.Exit(runMain(args, false))
	case "trace":
		os.Exit(runMain(args, true))
	case "compare":
		os.Exit(compareMain(args))
	case "child":
		os.Exit(childMain(args))
	default:
		usage()
		os.Exit(2)
	}
}
