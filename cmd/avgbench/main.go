// Command avgbench runs the reproduction experiments E1–E14 and prints
// their tables; each table's header states the paper claim it checks.
//
// Usage:
//
//	avgbench                         # every experiment at quick scale
//	avgbench -only E1,E3             # selected experiments (unknown ids list the catalogue)
//	avgbench -full -seed 7           # full-scale sweeps
//	avgbench -parallel 1             # force sequential execution
//
// Tables are bit-identical at every -parallel level: all randomness is
// derived from the master seed, never from scheduling.
package main

import (
	"flag"
	"fmt"
	"os"

	"avgloc/internal/harness"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "avgbench:", err)
		os.Exit(1)
	}
}

func run() error {
	only := flag.String("only", "", "comma-separated experiment ids to run, e.g. E1,E3 (default: all)")
	full := flag.Bool("full", false, "full-scale sweeps (minutes instead of seconds)")
	seed := flag.Uint64("seed", 42, "master seed")
	parallel := flag.Int("parallel", 0, "worker budget per experiment (0 = GOMAXPROCS, 1 = sequential)")
	flag.Parse()

	opt := harness.Options{Scale: harness.Quick, Seed: *seed, Parallelism: *parallel}
	if *full {
		opt.Scale = harness.Full
	}
	// Resolving the filter up front fails fast on typos — with the
	// catalogue in the error — instead of erroring mid-sweep.
	experiments, err := harness.Select(*only)
	if err != nil {
		return err
	}
	for _, e := range experiments {
		tab, err := harness.Run(e.ID, opt)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Println(tab.String())
	}
	return nil
}
