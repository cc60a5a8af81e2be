// Command benchtables regenerates every table and figure of the paper's
// evaluation as Markdown, the text EXPERIMENTS.md carries between its
// generated markers (see DESIGN.md's experiment index).
//
// Usage:
//
//	benchtables             # model-level experiments (fast)
//	benchtables -functional # also run the packet-level machine simulations
//	benchtables -e E1,E4f   # only the named experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"qcdoc/internal/experiments"
)

func main() {
	runFunctional := flag.Bool("functional", false, "run the packet-level machine simulations too (slower)")
	only := flag.String("e", "", "comma-separated experiment ids (e.g. E1,E4f); default all")
	flag.Parse()

	static := experiments.Static()
	var valid []string
	for _, t := range static {
		valid = append(valid, t.ID)
	}
	for _, f := range experiments.Functional {
		valid = append(valid, f.ID)
	}
	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id == "" {
			continue
		}
		if !slices.ContainsFunc(valid, func(v string) bool { return strings.EqualFold(v, id) }) {
			fmt.Fprintf(os.Stderr, "benchtables: -e: unknown experiment %q (valid: %s)\n", id, strings.Join(valid, ","))
			flag.Usage()
			os.Exit(2)
		}
		want[strings.ToUpper(id)] = true
	}
	selected := func(id string) bool {
		return len(want) == 0 || want[strings.ToUpper(id)]
	}

	var tables []experiments.Table
	for _, t := range static {
		if selected(t.ID) {
			tables = append(tables, t)
		}
	}
	// A functional experiment runs under -functional, or when -e names it.
	for _, f := range experiments.Functional {
		if !(*runFunctional && selected(f.ID) || want[strings.ToUpper(f.ID)]) {
			continue
		}
		t, err := f.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", f.ID, err)
			os.Exit(1)
		}
		tables = append(tables, t)
	}
	for _, t := range tables {
		fmt.Println(t.Format())
	}
}
