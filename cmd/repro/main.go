// Command repro regenerates the paper's tables and figures (and this
// repository's ablations). Each experiment id corresponds to one
// artifact; see DESIGN.md §3 for the index.
//
// Usage:
//
//	repro [-quick] [-seed N] [-v] [-transport net|mem] [-servers N] [-accesses N]
//	      [-speed-factors SPEC] [-format text|json|csv] [-out FILE] [-bench DIR]
//	      [-metrics FILE] <experiment>... | all | list
//
// Examples:
//
//	repro list
//	repro -quick figure4
//	repro table1 figure2 upperbound
//	repro -format=json -out results.json figure4 figure6
//	repro -transport=mem figure6      # prototype experiments without sockets
//	repro -servers 10000 -accesses 10000000 simscale   # hot path at full scale
//	repro -bench bench -quick all     # also drop BENCH_<id>.json records
//	repro -quick -metrics metrics.json figure6   # dump per-cell obs snapshots
//	repro all                         # full-fidelity run (several minutes)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"finelb/internal/experiments"
	"finelb/internal/simcluster"
	"finelb/internal/transport"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit, so tests can drive
// the command end to end.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "reduced run lengths (~1 minute for the whole suite)")
	seed := fs.Uint64("seed", 1, "random seed for all experiment streams")
	verbose := fs.Bool("v", false, "print per-cell progress")
	transportName := fs.String("transport", "net", "prototype messaging substrate: net (real loopback sockets) or mem (in-memory fabric)")
	format := fs.String("format", "text", "output format: text, json, or csv")
	out := fs.String("out", "", "write output to this file instead of stdout")
	servers := fs.Int("servers", 0, "override cluster size for scale-aware experiments (simscale); 0 = experiment default")
	accesses := fs.Int("accesses", 0, "override access count for scale-aware experiments (simscale); 0 = experiment default")
	speedSpec := fs.String("speed-factors", "", `override heterogeneous server speeds for speed-aware experiments (hetchurn), e.g. "4x3.25,12x0.25"`)
	benchDir := fs.String("bench", "", "also write one BENCH_<id>.json record per experiment into this directory")
	metricsOut := fs.String("metrics", "", "write every cell's obs metrics snapshot to this file as a JSON array")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: repro [-quick] [-seed N] [-v] [-transport net|mem] [-servers N] [-accesses N] [-speed-factors SPEC] [-format text|json|csv] [-out FILE] [-bench DIR] [-metrics FILE] <experiment>... | all | list\n\nexperiments:\n")
		for _, id := range experiments.IDs() {
			desc, _ := experiments.Describe(id)
			fmt.Fprintf(stderr, "  %-14s %s\n", id, desc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, err := transport.ByName(*transportName, *seed); err != nil {
		fmt.Fprintf(stderr, "repro: %v\n", err)
		return 2
	}
	switch *format {
	case "text", "json", "csv":
	default:
		fmt.Fprintf(stderr, "repro: unknown format %q (want text, json, or csv)\n", *format)
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}

	ids := fs.Args()
	if len(ids) == 1 {
		switch ids[0] {
		case "list":
			for _, id := range experiments.IDs() {
				desc, _ := experiments.Describe(id)
				fmt.Fprintf(stdout, "%-14s %s\n", id, desc)
			}
			return 0
		case "all":
			ids = experiments.IDs()
		}
	}

	dst := stdout
	var outFile *os.File
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		outFile = f
		dst = f
	}

	speedFactors, err := simcluster.ParseSpeedFactors(*speedSpec)
	if err != nil {
		fmt.Fprintf(stderr, "repro: -speed-factors: %v\n", err)
		return 2
	}

	opts := experiments.Options{
		Quick: *quick, Seed: *seed, Transport: *transportName,
		Servers: *servers, Accesses: *accesses,
		SpeedFactors: speedFactors,
	}
	if *verbose {
		opts.Progress = stderr
	}
	if *metricsOut != "" {
		opts.Metrics = &experiments.MetricsLog{}
	}
	var tables []*experiments.Table
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		if outFile != nil {
			outFile.Close()
		}
		return 1
	}
	for _, id := range ids {
		runner, err := experiments.Get(id)
		if err != nil {
			fmt.Fprintln(stderr, err)
			if outFile != nil {
				outFile.Close()
			}
			return 2
		}
		start := time.Now()
		tbl, err := runner(opts)
		if err != nil {
			return fail(fmt.Errorf("repro: %s failed: %w", id, err))
		}
		wall := time.Since(start)
		if *benchDir != "" {
			rec := experiments.NewBenchRecord(id, opts, tbl, wall)
			if err := experiments.WriteBenchRecord(*benchDir, rec); err != nil {
				return fail(err)
			}
		}
		switch *format {
		case "json":
			// Collected and emitted as one array after all runs.
			tables = append(tables, tbl)
		case "csv":
			if err := tbl.WriteCSV(dst); err != nil {
				return fail(err)
			}
		default:
			if err := tbl.Render(dst); err != nil {
				return fail(err)
			}
			fmt.Fprintf(dst, "  (%s completed in %v)\n\n", id, wall.Round(time.Millisecond))
		}
	}
	if *format == "json" {
		if err := experiments.WriteTablesJSON(dst, tables); err != nil {
			return fail(err)
		}
	}
	if opts.Metrics != nil {
		f, err := os.Create(*metricsOut)
		if err != nil {
			return fail(err)
		}
		if err := opts.Metrics.WriteJSON(f); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
	}
	if outFile != nil {
		if err := outFile.Close(); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return 0
}
