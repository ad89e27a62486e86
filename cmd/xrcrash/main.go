// Command xrcrash is the crash-recovery gate run by CI (`make
// crash-smoke`): it kills a WAL-enabled store's log at randomized byte
// offsets mid-workload, reopens through recovery, and verifies that every
// acknowledged transaction survived, that every multi-element insert
// batch is wholly present or wholly absent, that the XR-tree satisfies
// Definition 4, and that the no-index and B+ joins still agree with
// XR-stack on the redone set. A final phase hammers one store with
// concurrent writers and asserts the group-commit signature, fsyncs <
// commits.
//
// Usage:
//
//	xrcrash [-n 30] [-ops 200] [-seed 1] [-writers 8] [-wops 100] [-v]
//
// Exit status 0 means every crash recovered clean.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"xrtree/internal/wal/crashtest"
)

func main() {
	var (
		n       = flag.Int("n", 30, "randomized kill points to test")
		ops     = flag.Int("ops", 200, "mutation rounds per run (an insert or delete, then an insert batch)")
		seed    = flag.Int64("seed", 1, "base random seed")
		writers = flag.Int("writers", 8, "concurrent writers in the group-commit phase")
		wops    = flag.Int("wops", 100, "inserts per writer in the group-commit phase")
		verbose = flag.Bool("v", false, "print every run")
	)
	flag.Parse()

	root, err := os.MkdirTemp("", "xrcrash")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(root)

	// Probe run: no crash, clean close. Measures the log size so kill
	// points cover the whole byte range the workload writes, and checks
	// the clean-shutdown path itself.
	probeDir := filepath.Join(root, "probe")
	if err := os.Mkdir(probeDir, 0o755); err != nil {
		fatal(err)
	}
	probe, err := crashtest.Run(probeDir, crashtest.Config{Seed: *seed, Ops: *ops})
	if err != nil {
		fatal(fmt.Errorf("probe run: %w", err))
	}
	if probe.LogBytes == 0 {
		fatal(fmt.Errorf("probe run wrote no log bytes"))
	}
	fmt.Printf("probe: %d transactions, %d log bytes, clean close honored\n",
		probe.Committed, probe.LogBytes)

	// Crash runs: kill the log at a random offset, recover, verify.
	rng := rand.New(rand.NewSource(*seed))
	fired := 0
	for i := 0; i < *n; i++ {
		dir := filepath.Join(root, fmt.Sprintf("run%03d", i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			fatal(err)
		}
		cfg := crashtest.Config{
			Seed:      *seed + int64(i) + 1,
			Ops:       *ops,
			KillAfter: 1 + rng.Int63n(probe.LogBytes),
		}
		res, err := crashtest.Run(dir, cfg)
		if err != nil {
			fatal(fmt.Errorf("run %d (seed %d, kill %d): %w", i, cfg.Seed, cfg.KillAfter, err))
		}
		if res.Crashed {
			fired++
		}
		if *verbose {
			fmt.Printf("run %3d: kill@%-7d crashed=%-5v committed=%-4d redo: %d tx, %d pages, torn=%v\n",
				i, cfg.KillAfter, res.Crashed, res.Committed,
				res.Report.TxCommitted, res.Report.PagesApplied, res.Report.TornTail)
		}
		os.RemoveAll(dir)
	}
	fmt.Printf("crash: %d/%d kill points fired, all recovered clean\n", fired, *n)
	if fired == 0 {
		fatal(fmt.Errorf("no kill point fired — kill range miscalibrated"))
	}

	// Group-commit phase: concurrent writers must share fsyncs.
	stats, err := crashtest.RunGroupCommit(filepath.Join(root, "gc.db"), *writers, *wops)
	if err != nil {
		fatal(fmt.Errorf("group commit: %w", err))
	}
	fmt.Printf("group commit: %d commits, %d fsyncs, max group %d\n",
		stats.Commits, stats.Fsyncs, stats.MaxGroup)
	if stats.Fsyncs >= stats.Commits {
		fatal(fmt.Errorf("group commit absent: %d fsyncs for %d commits", stats.Fsyncs, stats.Commits))
	}
	fmt.Println("ok")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xrcrash:", err)
	os.Exit(1)
}
