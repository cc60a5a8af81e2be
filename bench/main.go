// Command bench is the repository's benchmark: five reference workloads
// of the QCDOC simulator, measured end to end on a dark pass (telemetry
// off, no spans) and layer by layer on a traced pass. See README.md.
//
//	bash bench/run.sh --workload W --seed S --seconds T --trace 0|1   one driver run
//	go -C bench run .                                                 the full suite
//	go -C bench run . -compare A.json B.json                          apply the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// provenance says where and how a result file was produced.
type provenance struct {
	NumCPU     int            `json:"numcpu"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	CPUModel   string         `json:"cpu_model"`
	GitCommit  string         `json:"git_commit"`
	Seed       uint64         `json:"seed"`
	Smoke      bool           `json:"smoke,omitempty"`
	Warmup     map[string]int `json:"warmup_ops"`
	// Seconds is the per-pass measuring time of a driver run, 0 in the
	// full suite, whose N per workload is in each pass.
	Seconds float64 `json:"seconds,omitempty"`
}

func readProvenance(seed uint64, smoke bool, seconds float64) provenance {
	p := provenance{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPUModel: "unknown", GitCommit: "unknown",
		Seed: seed, Smoke: smoke, Seconds: seconds, Warmup: map[string]int{},
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The driver's checkout is not a git repository; "unknown" is the
	// honest answer there.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		p.GitCommit = strings.TrimSpace(string(out))
	}
	for _, w := range workloads() {
		p.Warmup[w.name] = w.warm
	}
	return p
}

// resultFile is what a run writes under bench/out/ and what -compare
// reads. Passes holds a dark and/or a traced pass per workload.
type resultFile struct {
	Provenance provenance   `json:"provenance"`
	Passes     []passResult `json:"passes"`
}

// resultLine is the last line of a driver run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload (a driver run); empty runs the full suite")
		seed    = flag.Uint64("seed", defaultSeed, "input seed: gauge = seed, source = seed+1, fleet lattice = 4000+seed")
		seconds = flag.Float64("seconds", runSeconds, "measuring time of a driver run")
		trace   = flag.Int("trace", 0, "driver run: 0 = dark pass, end-to-end metrics; 1 = traced pass, per-layer metrics")
		smoke   = flag.Bool("smoke", false, "tiny lattices, one operation per pass: checks the plumbing, measures nothing")
		outDir  = flag.String("out", "out", "directory for result files and trace.json")
		compare = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json as generated from the metric and workload tables")
	)
	flag.Parse()
	switch {
	case *spec:
		b, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare A.json B.json"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *name == "":
		if err := runSuite(*seed, *smoke, *outDir); err != nil {
			fatal(err)
		}
	default:
		if err := runDriver(*name, *seed, *seconds, *trace != 0, *smoke, *outDir); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// runDriver is one run of the driver's contract: one workload, one
// pass, the result object as the last line of standard output.
func runDriver(name string, seed uint64, seconds float64, traced, smoke bool, outDir string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	b := budget{seconds: seconds}
	if smoke {
		b = budget{ops: 1}
	}
	prov := readProvenance(seed, smoke, seconds)
	var res passResult
	defs := endToEnd()
	if traced {
		var spans []span
		// The traced pass spends about a third of its time on extras and
		// probes; its dark/traced pairs get the rest.
		b.seconds *= 0.6
		res, spans, err = runTraced(w, seed, smoke, b, runProbes(smoke))
		if err == nil {
			err = writeOut(outDir, "trace.json", func(p string) error { return writeTrace(p, prov, []string{w.name}, spans) })
		}
		defs = perLayer()
	} else {
		res, err = runDark(w, seed, smoke, b)
	}
	if err != nil {
		return err
	}
	err = writeOut(outDir, fmt.Sprintf("%s.%s.json", w.name, res.kind()), func(p string) error {
		return writeJSON(p, resultFile{Provenance: prov, Passes: []passResult{res}})
	})
	if err != nil {
		return err
	}
	printPass(res, defs)
	line, err := driverLine(res, defs)
	if err != nil {
		return err
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// driverLine builds the result object of a pass: exactly the metrics of
// defs, a metric the workload does not exercise reading 0.
func driverLine(res passResult, defs []metricDef) (resultLine, error) {
	line := resultLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := res.Metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return line, fmt.Errorf("%s: metric %s is %v", res.Workload, d.Name, v)
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return line, nil
}

// runSuite runs every workload in this one process, dark pass then
// traced pass, at the workloads' own W and N, and writes one result
// file. It refuses to record on a single CPU: every legacy BENCH_*.json
// was, and their parallel rows mean nothing.
func runSuite(seed uint64, smoke bool, outDir string) error {
	prov := readProvenance(seed, smoke, 0)
	file := resultFile{Provenance: prov}
	var spans []span
	var names []string
	failed := 0
	probes := runProbes(smoke)
	for _, w := range workloads() {
		bd, bt := budget{ops: w.n}, budget{ops: max(2, w.n/4)}
		if smoke {
			bd, bt = budget{ops: 1}, budget{ops: 1}
		}
		dark, err := runDark(w, seed, smoke, bd)
		if err != nil {
			return err
		}
		printPass(dark, endToEnd())
		traced, sp, err := runTraced(w, seed, smoke, bt, probes)
		if err != nil {
			return err
		}
		printPass(traced, perLayer())
		base := len(spans)
		for _, s := range sp {
			if s.Parent >= 0 {
				s.Parent += base
			}
			spans = append(spans, s)
		}
		names = append(names, w.name)
		file.Passes = append(file.Passes, dark, traced)
		failed += dark.Failed + traced.Failed
	}
	if smoke {
		return nil
	}
	if prov.NumCPU < 2 {
		return fmt.Errorf("numcpu = %d: refusing to write result files from a single-CPU host", prov.NumCPU)
	}
	if err := writeOut(outDir, "trace.json", func(p string) error { return writeTrace(p, prov, names, spans) }); err != nil {
		return err
	}
	if err := writeOut(outDir, "results.json", func(p string) error { return writeJSON(p, file) }); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

func writeOut(dir, name string, write func(path string) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return write(filepath.Join(dir, name))
}

func (res passResult) kind() string {
	if res.Traced {
		return "traced"
	}
	return "dark"
}

// printPass prints every metric of a pass by name, with its unit.
func printPass(res passResult, defs []metricDef) {
	fmt.Printf("# %s  %s pass  seed %d  warm-up %d  attempted %d  failed %d  fail_ratio %.3g  digest %s\n",
		res.Workload, res.kind(), res.Seed, res.Warm, res.Attempted, res.Failed, float64(res.Failed)/float64(max(1, res.Attempted)), res.Digest)
	for _, f := range res.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-42s %16s %-8s", d.Name, formatValue(v), d.Unit)
		if ds, ok := res.Dists[d.Name]; ok {
			line += fmt.Sprintf("  q1 %.6g  q3 %.6g  min %.6g  max %.6g  n %d", ds.Q1, ds.Q3, ds.Min, ds.Max, ds.N)
		}
		fmt.Println(line)
	}
}

// formatValue prints counts in full and measurements to six digits.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6g", v)
}
