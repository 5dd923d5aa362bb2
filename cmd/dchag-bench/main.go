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
	format := flag.String("format", "text", "output format: text | markdown")
	jsonPath := flag.String("json", "", "write the sweep report as JSON to this path and exit (see doc.go for the schema)")
	computePath := flag.String("compute", "", "measure the compute substrate (GEMM, channel aggregation, softmax and GELU, the channel stage) and write the report as JSON to this path (see doc.go for the schema)")
	diff := flag.Bool("diff", false, "compare two sweep reports: dchag-bench -diff old.json new.json; exits 1 on regressions")
	diffTol := flag.Float64("diff-tol", 0.05, "fractional step-time regression tolerance for -diff (0.05 = 5%)")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Get())
		return
	}

	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "dchag-bench: -diff needs exactly two report paths: old.json new.json")
			os.Exit(2)
		}
		d, err := diffReports(flag.Arg(0), flag.Arg(1), *diffTol)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dchag-bench: %v\n", err)
			os.Exit(2)
		}
		if !d.Clean() {
			fmt.Printf("%d regression(s) between %s and %s:\n", len(d.Regressions), flag.Arg(0), flag.Arg(1))
			for _, r := range d.Regressions {
				fmt.Printf("  %s\n", r)
			}
			os.Exit(1)
		}
		fmt.Printf("no regressions between %s and %s (tolerance %.1f%%)\n", flag.Arg(0), flag.Arg(1), 100**diffTol)
		return
	}
	// Only -diff takes positional arguments; anything else is a mistake
	// (e.g. report paths without -diff).
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "dchag-bench: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}
	if *format != "text" && *format != "markdown" {
		fmt.Fprintf(os.Stderr, "dchag-bench: unknown -format %q (usage: -format text | markdown)\n", *format)
		os.Exit(2)
	}
	render := func(r experiments.Result) string {
		if *format == "markdown" {
			return r.Markdown()
		}
		return r.String()
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
		fmt.Print(render(e.Run()))
		return
	}
	for _, e := range experiments.All() {
		fmt.Print(render(e.Run()))
	}
}

// diffReports loads two sweep-report files and returns their comparison.
func diffReports(oldPath, newPath string, tol float64) (experiments.SweepDiff, error) {
	load := func(path string) (experiments.SweepReport, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return experiments.SweepReport{}, err
		}
		var rep experiments.SweepReport
		if err := json.Unmarshal(data, &rep); err != nil {
			return experiments.SweepReport{}, fmt.Errorf("decoding %s: %w", path, err)
		}
		return rep, nil
	}
	oldRep, err := load(oldPath)
	if err != nil {
		return experiments.SweepDiff{}, err
	}
	newRep, err := load(newPath)
	if err != nil {
		return experiments.SweepDiff{}, err
	}
	return experiments.DiffSweep(oldRep, newRep, tol)
}
