package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/buildinfo"
	"repro/internal/experiments"
)

func main() {
	version := flag.Bool("version", false, "print build information and exit")
	fig := flag.String("fig", "", "experiment id to run (default: all)")
	list := flag.Bool("list", false, "list available experiments")
	jsonPath := flag.String("json", "", "write the sweep report as JSON to this path and exit (see doc.go for the schema)")
	computePath := flag.String("compute", "", "measure the compute substrate (GEMM, channel aggregation, softmax and GELU, the channel stage) and write the report as JSON to this path (see doc.go for the schema)")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Get())
		return
	}

	// No mode takes positional arguments; any is a mistake.
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "dchag-bench: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}

	if *computePath != "" {
		rep := experiments.RunComputeBench(experiments.DefaultComputeBench())
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "dchag-bench: encoding compute report: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*computePath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "dchag-bench: %v\n", err)
			os.Exit(1)
		}
		last := rep.Points[len(rep.Points)-1]
		fmt.Printf("wrote %s (%s, kernel=%s, %d sizes; %d^3: naive %.1f, blocked %.1f, f32 %.1f GFLOP/s)\n",
			*computePath, rep.Schema, rep.Kernel, len(rep.Points),
			last.Size, last.NaiveGFLOPS, last.BlockedGFLOPS, last.F32GFLOPS)
		return
	}

	if *jsonPath != "" {
		rep := experiments.RunSweep(experiments.DefaultSweepScales())
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "dchag-bench: encoding sweep report: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "dchag-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%s, %d points, cliff @ %d GCDs)\n",
			*jsonPath, rep.Schema, len(rep.Points), rep.CliffGCDs)
		return
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	if *fig != "" {
		e, ok := experiments.Find(*fig)
		if !ok {
			fmt.Fprintf(os.Stderr, "dchag-bench: unknown experiment %q (use -list)\n", *fig)
			os.Exit(1)
		}
		fmt.Print(e.Run())
		return
	}
	for _, e := range experiments.All() {
		fmt.Print(e.Run())
	}
}
