package main

import (
	"encoding/json"
	"errors"
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
	if err := checkFlags(benchFlags{json: *jsonPath, list: *list, fig: *fig}); err != nil {
		fmt.Fprintf(os.Stderr, "dchag-bench: %v\n", err)
		os.Exit(2)
	}

	switch {
	case *jsonPath != "":
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
	case *list:
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
	case *fig != "":
		e, _ := experiments.Find(*fig)
		fmt.Print(e.Run())
	default:
		for _, e := range experiments.All() {
			fmt.Print(e.Run())
		}
	}
}

// benchFlags is what checkFlags reads of the command line.
type benchFlags struct {
	json string
	list bool
	fig  string
}

// checkFlags refuses, before any work, a command line the run would
// otherwise half ignore: more than one of -json, -list and -fig (each is a
// mode of its own, and only one would run), and a -fig no experiment has.
func checkFlags(f benchFlags) error {
	modes := 0
	for _, set := range []bool{f.json != "", f.list, f.fig != ""} {
		if set {
			modes++
		}
	}
	if modes > 1 {
		return errors.New("-json, -list and -fig each pick a mode: give at most one")
	}
	if _, ok := experiments.Find(f.fig); f.fig != "" && !ok {
		return fmt.Errorf("unknown experiment %q (use -list)", f.fig)
	}
	return nil
}
