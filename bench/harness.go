package main

import (
	"fmt"
	"maps"
	"math"
	"runtime"
	"sort"
)

// opOut is what one operation reports besides its host time.
type opOut struct {
	simS   float64 // simulated seconds the operation advanced
	digest uint64  // FNV fold of the operation's simulated outcome
	// layer holds the per-layer run metrics read from public counters
	// and spans; filled only on a traced operation.
	layer map[string]float64
}

// instance is one workload with its inputs generated.
type instance interface {
	// op runs one operation and checks its output. tr is nil on the
	// dark pass; a non-nil tr also switches the simulator's telemetry on.
	op(tr *tracer) (opOut, error)
	// extras runs the traced pass's additional measurements (the same
	// work at another worker count) and adds their metrics to m.
	// darkWall is the dark pass's median wall_s.
	extras(darkWall float64, digest uint64, m map[string]float64) error
}

// workload is one entry of the benchmark.
type workload struct {
	name, why string
	// warm and n are W and N of the full suite: untimed warm-up
	// operations, then timed ones. A driver run keeps W and takes N from
	// -seconds.
	warm, n int
	setup   func(seed uint64, smoke bool) (instance, error)
}

// sample is one timed operation.
type sample struct {
	Wall       float64 `json:"wall_s"`
	SimS       float64 `json:"sim_s"`
	Allocs     uint64  `json:"allocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
}

// timeOp runs one operation with the collector quiesced beforehand;
// the GC and both MemStats reads are outside the timed region.
func timeOp(inst instance, tr *tracer) (sample, opOut, error) {
	runtime.GC()
	mallocs0, bytes0 := readMem()
	start := now()
	out, err := inst.op(tr)
	wall := since(start)
	mallocs1, bytes1 := readMem()
	return sample{Wall: wall, SimS: out.simS, Allocs: mallocs1 - mallocs0, AllocBytes: bytes1 - bytes0}, out, err
}

// readMem returns the allocator's running totals: objects and bytes
// allocated since the process started.
func readMem() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// dist summarises the timed operations' values of one metric.
type dist struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarize(v []float64) dist {
	if len(v) == 0 {
		return dist{}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return dist{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// quantile interpolates linearly between order statistics of sorted s.
func quantile(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return summarize(v).Median }

// passResult is one pass (dark or traced) of one workload.
type passResult struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Seed      uint64             `json:"seed"`
	Warm      int                `json:"warmup_ops"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Digest    string             `json:"digest"`
	Metrics   map[string]float64 `json:"metrics"`
	Dists     map[string]dist    `json:"distributions,omitempty"`
	// WarmupWall keeps the untimed warm-up operations' host seconds: the
	// cold-heap effect behind the old E11 workers=1 anomaly shows here.
	WarmupWall []float64 `json:"warmup_wall_s"`
	Samples    []sample  `json:"samples"`
	SetupReps  []float64 `json:"setup_reps_s,omitempty"`
}

// budget bounds a pass's timed loop: ops > 0 fixes the count (the full
// suite's N); otherwise operations run until seconds of host time have
// passed, and at least once.
type budget struct {
	seconds float64
	ops     int
}

func (b budget) more(done int, elapsed float64) bool {
	if b.ops > 0 {
		return done < b.ops
	}
	return done == 0 || elapsed < b.seconds
}

// setupReps is how many times a dark pass generates its inputs; setup_s
// reports the median repetition plus the warm-up operations.
const setupReps = 5

// runDark measures the end-to-end metrics of one workload: telemetry
// off, no spans.
func runDark(w workload, seed uint64, smoke bool, b budget) (passResult, error) {
	res := passResult{Workload: w.name, Seed: seed, Warm: w.warm}
	var inst instance
	reps := setupReps
	if smoke {
		reps, res.Warm = 1, 0
	}
	for i := 0; i < reps; i++ {
		start := now()
		var err error
		if inst, err = w.setup(seed, smoke); err != nil {
			return res, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		res.SetupReps = append(res.SetupReps, since(start))
	}
	warmStart := now()
	if err := res.warmUp(inst); err != nil {
		return res, err
	}
	setupS := median(res.SetupReps) + since(warmStart)

	var walls, ratios, allocs, mbs []float64
	loopStart := now()
	for b.more(res.Attempted, since(loopStart)) {
		s, _, ok := res.attempt(inst, nil)
		if !ok {
			continue
		}
		walls = append(walls, s.Wall)
		ratios = append(ratios, s.Wall/s.SimS)
		allocs = append(allocs, float64(s.Allocs))
		mbs = append(mbs, float64(s.AllocBytes)/1e6)
	}
	res.Dists = map[string]dist{
		"wall_s": summarize(walls), "host_s_per_sim_s": summarize(ratios),
		"allocs_per_op": summarize(allocs), "alloc_mb_per_op": summarize(mbs),
	}
	res.Metrics = map[string]float64{"setup_s": setupS}
	for name, d := range res.Dists {
		res.Metrics[name] = d.Median
	}
	return res, nil
}

// warmUp runs the pass's untimed warm-up operations, keeping their times.
func (res *passResult) warmUp(inst instance) error {
	for i := 0; i < res.Warm; i++ {
		s, _, err := timeOp(inst, nil)
		if err != nil {
			return fmt.Errorf("%s: warm-up operation %d: %w", res.Workload, i, err)
		}
		res.WarmupWall = append(res.WarmupWall, s.Wall)
	}
	return nil
}

// attempt runs one timed operation and books it: a failure is an error
// from the operation or a simulated digest that differs from the
// pass's first one. It reports whether the operation counts.
func (res *passResult) attempt(inst instance, tr *tracer) (sample, opOut, bool) {
	s, out, err := timeOp(inst, tr)
	res.Attempted++
	digest := fmt.Sprintf("%#x", out.digest)
	if err == nil && res.Digest != "" && digest != res.Digest {
		err = fmt.Errorf("simulated digest %s differs from the first repetition's %s (traced=%v)", digest, res.Digest, tr != nil)
	}
	if err != nil {
		res.Failed++
		res.Failures = append(res.Failures, err.Error())
		return s, out, false
	}
	res.Digest = digest
	res.Samples = append(res.Samples, s)
	return s, out, true
}

// runTraced measures the per-layer metrics of one workload: after the
// warm-up it alternates dark and traced operations (their ratio is the
// tracing overhead), runs the workload's extras and the layer probes,
// and returns the spans it recorded. probes holds the layer probes'
// metrics, which depend on neither workload nor seed.
func runTraced(w workload, seed uint64, smoke bool, b budget, probes map[string]float64) (passResult, []span, error) {
	res := passResult{Workload: w.name, Traced: true, Seed: seed, Warm: w.warm}
	if smoke {
		res.Warm = 0
	}
	inst, err := w.setup(seed, smoke)
	if err != nil {
		return res, nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	if err := res.warmUp(inst); err != nil {
		return res, nil, err
	}
	tr := newTracer()
	var digest uint64
	var dark, traced []float64
	layers := map[string][]float64{}
	loopStart := now()
	for pairs := 0; b.more(pairs, since(loopStart)); pairs++ {
		for _, t := range []*tracer{nil, tr} {
			s, out, ok := res.attempt(inst, t)
			if !ok {
				continue
			}
			digest = out.digest
			if t == nil {
				dark = append(dark, s.Wall)
				continue
			}
			traced = append(traced, s.Wall)
			for _, name := range sortedKeys(out.layer) {
				layers[name] = append(layers[name], out.layer[name])
			}
		}
	}
	res.Metrics = map[string]float64{}
	for name, vs := range layers {
		res.Metrics[name] = median(vs)
	}
	if len(dark) == 0 || len(traced) == 0 {
		return res, tr.spans, nil
	}
	darkWall, tracedWall := median(dark), median(traced)
	res.Metrics["telemetry.overhead_ratio"] = tracedWall / darkWall
	if err := inst.extras(darkWall, digest, res.Metrics); err != nil {
		res.Failed++
		res.Failures = append(res.Failures, err.Error())
	}
	maps.Copy(res.Metrics, probes)
	derive(res.Metrics, tracedWall)
	return res, tr.spans, nil
}

// derive fills the metrics computed from a count and a probe cost:
// estimates, because the layers below core/machine run inside
// Engine.Run where the benchmark cannot place spans.
func derive(m map[string]float64, wall float64) {
	if wall <= 0 {
		return
	}
	m["event.est_share"] = m["event.events"] * m["event.probe_dispatch_ns"] * 1e-9 / wall
	hostS := 0.0
	for _, op := range []string{"wilson", "clover", "asqtad", "dwf"} {
		hostS += m["_host_site_apps."+op] * m["fermion.probe_"+op+"_ns_per_site"] * 1e-9
		delete(m, "_host_site_apps."+op)
	}
	m["fermion.est_share"] = hostS / wall
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
