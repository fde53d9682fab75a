// Command fleetbench is EDR's end-to-end benchmark: it brings up a live
// replica fleet (core.ReplicaServer ring plus core.Client endpoints) in
// this process and drives closed-loop scheduling rounds through the
// public API, checking every round with an oracle and against the
// central optimum. See README.md for the workloads and metrics.
//
//	go run . --workload cluster_lddm --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// deadline bounds a whole run: past it the benchmark exits without a
// result rather than hang.
const deadline = 170 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "measured loop length in seconds")
		trace   = flag.Int("trace", 0, "1: traced run (spans on, per-layer metrics)")
		spanDir = flag.String("spans", ".bench_build/spans", "directory for traced runs' span files")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	go func() {
		<-ctx.Done()
		if ctx.Err() == context.DeadlineExceeded {
			time.Sleep(5 * time.Second) // give Run a moment to return on its own
			fmt.Fprintln(os.Stderr, "fleetbench: run exceeded", deadline)
			os.Exit(3)
		}
	}()
	o := Options{Workload: w, Seed: *seed, Seconds: *seconds, Trace: *trace == 1}
	if o.Trace && *spanDir != "" {
		if err := os.MkdirAll(*spanDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "fleetbench:", err)
			os.Exit(1)
		}
		o.SpanFile = filepath.Join(*spanDir, w.Name+".csv.gz")
	}
	res, err := Run(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
	if err := res.Print(os.Stdout, w.Name, *seed, o.Trace, res.Failed == 0); err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
}
