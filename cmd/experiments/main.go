// Command experiments prints every experiment table of internal/experiments
// (the executable counterpart of the paper's theorems and figures).
//
// Usage:
//
//	experiments [-seed N] [-only E4]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	os.Exit(run())
}

func run() int {
	seed := flag.Int64("seed", 1, "random seed shared by all experiments")
	only := flag.String("only", "", "run a single experiment (e.g. E4)")
	flag.Parse()

	tables, err := experiments.All(*seed)
	for _, t := range tables {
		if *only != "" && !strings.EqualFold(*only, strings.TrimSuffix(t.ID, "a")) &&
			!strings.EqualFold(*only, t.ID) {
			continue
		}
		fmt.Println(t.Render())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return 1
	}
	return 0
}
