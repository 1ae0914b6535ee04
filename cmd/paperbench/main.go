// Command paperbench regenerates every table and figure of the paper's
// evaluation (the experiment index E1-E16 of DESIGN.md) and prints
// paper-vs-measured checks for each.
//
// Usage:
//
//	paperbench -exp all            # run everything at small scale
//	paperbench -exp fig1b          # one experiment
//	paperbench -exp all -scale paper   # the paper's own sizes (slower)
//	paperbench -list               # list experiment ids
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"ipg/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id to run, or \"all\"")
	scaleName := flag.String("scale", "small", "experiment scale: small or paper")
	list := flag.Bool("list", false, "list experiment ids and exit")
	jsonOut := flag.Bool("json", false, "emit results as JSON instead of text")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-16s %s\n", id, experiments.Title(id))
		}
		return
	}

	var scale experiments.Scale
	switch *scaleName {
	case "small":
		scale = experiments.Small
	case "paper":
		scale = experiments.Paper
	default:
		fmt.Fprintf(os.Stderr, "paperbench: unknown scale %q (want small or paper)\n", *scaleName)
		os.Exit(2)
	}

	var results []*experiments.Result
	if *exp == "all" {
		var err error
		results, err = experiments.RunAll(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
	} else {
		res, err := experiments.Run(*exp, scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
		results = append(results, res)
	}

	failed := 0
	for _, r := range results {
		if !r.Passed() {
			failed++
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		type jsonReport struct {
			Experiments []*experiments.Result `json:"experiments"`
			Passed      int                   `json:"passed"`
			Total       int                   `json:"total"`
		}
		if err := enc.Encode(jsonReport{Experiments: results, Passed: len(results) - failed, Total: len(results)}); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
	} else {
		fmt.Print(experiments.Report(results))
	}
	if failed > 0 {
		os.Exit(1)
	}
}
