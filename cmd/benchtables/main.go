// Command benchtables regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index and EXPERIMENTS.md for
// the paper-vs-measured record).
//
// Usage:
//
//	benchtables             # model-level experiments (fast)
//	benchtables -functional # also run the packet-level machine simulations
//	benchtables -e E1,E4    # only the named experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"qcdoc/internal/experiments"
)

// functional lists the packet-level machine simulations, in run order.
var functional = []struct {
	id  string
	run func() (experiments.Table, error)
}{
	{"E4F", experiments.E4Functional},
	{"E5F", experiments.E5Functional},
	{"E10", experiments.E10},
	{"E12", experiments.E12},
	{"E13", experiments.E13},
	{"E14", experiments.E14},
	{"E16", experiments.E16},
	{"E1F", experiments.E1Functional},
}

func main() {
	runFunctional := flag.Bool("functional", false, "run the packet-level machine simulations too (slower)")
	only := flag.String("e", "", "comma-separated experiment ids (e.g. E1,E4f); default all")
	flag.Parse()

	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		id = strings.TrimSpace(id)
		if id != "" {
			want[strings.ToUpper(id)] = true
		}
	}
	selected := func(id string) bool {
		return len(want) == 0 || want[strings.ToUpper(id)]
	}

	var tables []experiments.Table
	for _, t := range experiments.Static() {
		if selected(t.ID) {
			tables = append(tables, t)
		}
	}
	// A functional experiment runs under -functional, or when -e names it.
	for _, f := range functional {
		if !(*runFunctional && selected(f.id) || want[f.id]) {
			continue
		}
		t, err := f.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", f.id, err)
			os.Exit(1)
		}
		tables = append(tables, t)
	}
	for _, t := range tables {
		fmt.Println(t.Format())
	}
}
