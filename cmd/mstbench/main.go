// Command mstbench regenerates the reproduction experiments E1-E15,
// printing one table per experiment. The README's experiment sections
// ("E11: engine scaling" through "E14: fiber mode everywhere") describe
// the engine races and record their tables; `mstbench -full` runs the
// full-size sweeps those sections quote.
//
// Usage:
//
//	mstbench [-full] [-e e1,e5] [-engine lockstep|parallel] [-workers 1,2,4,8]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"congestmst"
	"congestmst/internal/bench"
)

func main() {
	full := flag.Bool("full", false, "run the full-size experiments quoted in the README experiment sections")
	only := flag.String("e", "", "comma-separated experiment ids (default: all)")
	engine := flag.String("engine", "lockstep", "execution engine for the experiments: "+strings.Join(congestmst.EngineNames(), " | ")+" (e11-e15 always measure their own pairs)")
	workers := flag.String("workers", "", "comma-separated fiber worker counts for the e14 sweep (default 1,2,4,8)")
	traceDir := flag.String("trace", "", "write one NDJSON run trace per experiment run into this directory (created if missing)")
	flag.Parse()
	eng, err := congestmst.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mstbench:", err)
		os.Exit(1)
	}
	bench.DefaultEngine = eng
	if *workers != "" {
		sweep, err := parseWorkers(*workers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mstbench:", err)
			os.Exit(1)
		}
		bench.WorkerSweep = sweep
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "mstbench:", err)
			os.Exit(1)
		}
		bench.TraceDir = *traceDir
	}
	// Ctrl-C cancels the sweep at the next engine round boundary: the
	// in-flight run unwinds its goroutines (and the cluster engine its
	// sockets) instead of the process dying mid-mesh.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	bench.BaseContext = ctx
	if err := run(*full, *only); err != nil {
		fmt.Fprintln(os.Stderr, "mstbench:", err)
		os.Exit(1)
	}
}

// parseWorkers turns a "-workers 1,2,4" list into the e14 sweep.
func parseWorkers(s string) ([]int, error) {
	var sweep []int
	for _, part := range strings.Split(s, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad -workers entry %q (want positive integers, e.g. 1,2,4,8)", part)
		}
		sweep = append(sweep, w)
	}
	return sweep, nil
}

func run(full bool, only string) error {
	var ids []string
	if only != "" {
		ids = strings.Split(only, ",")
	} else {
		for _, e := range bench.All() {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		exp, ok := bench.Lookup(strings.TrimSpace(id))
		if !ok {
			return fmt.Errorf("unknown experiment %q", id)
		}
		start := time.Now()
		table, err := exp.Run(full)
		if err != nil {
			return fmt.Errorf("%s: %w", exp.ID, err)
		}
		fmt.Print(table.Format())
		fmt.Printf("   (%s in %v)\n\n", exp.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
