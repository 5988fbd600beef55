// Command cssbench regenerates the tables and figures of "Cache Conscious
// Indexing for Decision-Support in Main Memory" (Rao & Ross, 1998/99).
//
// Usage:
//
//	cssbench -list
//	cssbench -run fig10
//	cssbench -run table1,fig7,fig14 -quick
//	cssbench -run all -lookups 100000 -seed 7
//
// Simulated experiments (fig10–fig13) replay each algorithm's memory
// accesses against the paper's exact Ultra Sparc II / Pentium II cache
// configurations; wall-clock sections time the real implementations on this
// machine.  Absolute numbers differ from the paper's 1998 hardware — the
// shapes (who wins, by what factor, where the crossovers fall) are the
// reproduction target; README "Model vs measured" reconciles this host's
// numbers with the paper's miss counts, and the experiment list is
// `cssbench -list` (README "Commands").
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cssidx/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cssbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runIDs   = fs.String("run", "", "comma-separated experiment ids, or 'all'")
		list     = fs.Bool("list", false, "list experiments and exit")
		quick    = fs.Bool("quick", false, "shrink data sizes for a fast pass")
		lookups  = fs.Int("lookups", 100000, "lookups per measurement (paper: 100000)")
		seed     = fs.Int64("seed", 1, "workload seed")
		repeats  = fs.Int("repeats", 3, "wall-clock repetitions, minimum reported (paper: 5)")
		jsonPath = fs.String("json", "", "write machine-readable records to this file (\"-\" = stdout, suppressing tables)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list || *runIDs == "" {
		fmt.Fprintln(stdout, "experiments:")
		for _, e := range bench.Experiments() {
			fmt.Fprintf(stdout, "  %-8s %s\n", e.ID, e.Title)
		}
		if *runIDs == "" && !*list {
			fmt.Fprintln(stdout, "\nrun with -run <id>[,<id>…] or -run all")
		}
		return 0
	}

	cfg := bench.Config{
		Seed:    *seed,
		Lookups: *lookups,
		Quick:   *quick,
		Repeats: *repeats,
	}
	tableOut := stdout
	if *jsonPath != "" {
		cfg.Recorder = &bench.Recorder{}
		if *jsonPath == "-" {
			tableOut = io.Discard // JSON owns stdout
		}
	}

	var ids []string
	if *runIDs == "all" {
		for _, e := range bench.Experiments() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*runIDs, ",")
	}

	for _, id := range ids {
		id = strings.TrimSpace(id)
		e, ok := bench.Lookup(id)
		if !ok {
			fmt.Fprintf(stderr, "cssbench: unknown experiment %q (use -list)\n", id)
			return 2
		}
		fmt.Fprintf(tableOut, "=== %s: %s ===\n", e.ID, e.Title)
		if err := e.Run(cfg, tableOut); err != nil {
			fmt.Fprintf(stderr, "cssbench: %s: %v\n", e.ID, err)
			return 1
		}
		fmt.Fprintln(tableOut)
	}
	if cfg.Recorder != nil {
		if *jsonPath == "-" {
			if err := cfg.Recorder.WriteJSON(stdout); err != nil {
				fmt.Fprintf(stderr, "cssbench: writing json: %v\n", err)
				return 1
			}
			return 0
		}
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintf(stderr, "cssbench: %v\n", err)
			return 1
		}
		werr := cfg.Recorder.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr // surface write-back errors reported at close
		}
		if werr != nil {
			fmt.Fprintf(stderr, "cssbench: writing json: %v\n", werr)
			return 1
		}
	}
	return 0
}
