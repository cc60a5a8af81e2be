// Package telemetry is the machine-wide observability layer: a registry
// of counter and gauge sources that hardware and software components
// register once at construction, and that the host snapshots on demand.
//
// The load-bearing design rule is the zero-perturbation contract
// (DESIGN.md §10): reading telemetry must not change what the simulated
// machine does. The registry therefore never schedules events and never
// pushes — counters are plain fields the owning component increments on
// its own hot path, and the registry holds only *readers* (emit
// closures) that walk those fields when a snapshot is requested. When
// the registry is disabled, Snapshot returns empty and no source is
// touched; the components' own counters are ordinary simulator state
// either way, so enabling or disabling telemetry cannot move a single
// simulated event.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
)

// EmitFunc receives one named counter value during a snapshot.
type EmitFunc func(name string, v uint64)

// counterSource is one registered counter group: a name prefix and a
// reader that emits the group's current values.
type counterSource struct {
	prefix string
	emit   func(EmitFunc)
}

// gaugeSource is one registered derived gauge.
type gaugeSource struct {
	name string
	get  func() float64
}

// HistEmitFunc receives one named histogram snapshot during a registry
// snapshot. The emitting source builds the HistogramSnapshot itself
// (typically by merging per-node or per-link Histograms), so all
// aggregation cost lives on the cold pull path.
type HistEmitFunc func(name string, s HistogramSnapshot)

// histSource is one registered histogram group.
type histSource struct {
	prefix string
	emit   func(HistEmitFunc)
}

// Registry is a catalogue of telemetry sources, usually one per machine.
// It is not safe for concurrent use; like everything else in the
// simulator it lives on the engine goroutine.
type Registry struct {
	enabled  bool
	counters []counterSource
	gauges   []gaugeSource
	hists    []histSource
}

// New creates an empty, disabled registry.
func New() *Registry { return &Registry{} }

// SetEnabled turns snapshot collection on or off. Registration is
// allowed either way; a disabled registry just reads nothing.
func (r *Registry) SetEnabled(on bool) { r.enabled = on }

// Enabled reports whether snapshots collect.
func (r *Registry) Enabled() bool { return r.enabled }

// RegisterCounters adds a counter group. Every name the emit callback
// reports is prefixed with "prefix/". Registration stores only the
// closure — values are read at snapshot time, so the callback must stay
// valid for the registry's lifetime.
func (r *Registry) RegisterCounters(prefix string, emit func(EmitFunc)) {
	r.counters = append(r.counters, counterSource{prefix: prefix, emit: emit})
}

// RegisterGauge adds a derived gauge (a float computed at snapshot time,
// e.g. a utilization or a rate).
func (r *Registry) RegisterGauge(name string, get func() float64) {
	r.gauges = append(r.gauges, gaugeSource{name: name, get: get})
}

// RegisterHistograms adds a histogram group. Every name the emit
// callback reports is prefixed with "prefix/". Like counters, only the
// reader closure is stored; histograms are walked at snapshot time.
func (r *Registry) RegisterHistograms(prefix string, emit func(HistEmitFunc)) {
	r.hists = append(r.hists, histSource{prefix: prefix, emit: emit})
}

// Clear disables the registry and drops every registered source. Pool
// reclamation calls this when a machine is torn down so a recycled
// engine can never reach emit closures of a dead machine.
func (r *Registry) Clear() {
	r.enabled = false
	r.counters = nil
	r.gauges = nil
	r.hists = nil
}

// Snapshot is one observation of every registered source.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot reads every source. On a disabled registry it returns an
// empty snapshot without touching any source.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Counters: map[string]uint64{}, Gauges: map[string]float64{}}
	if !r.enabled {
		return s
	}
	for _, src := range r.counters {
		src.emit(func(name string, v uint64) {
			s.Counters[src.prefix+"/"+name] = v
		})
	}
	for _, g := range r.gauges {
		s.Gauges[g.name] = g.get()
	}
	if len(r.hists) > 0 {
		s.Histograms = map[string]HistogramSnapshot{}
		for _, src := range r.hists {
			src.emit(func(name string, hs HistogramSnapshot) {
				s.Histograms[src.prefix+"/"+name] = hs
			})
		}
	}
	return s
}

// Names returns the snapshot's counter names, sorted.
func (s Snapshot) Names() []string {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// snapNames returns the sorted keys of a histogram-snapshot map.
func snapNames(m map[string]HistogramSnapshot) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Format renders the snapshot as sorted "name value" lines — counters
// first, then gauges, then histogram percentiles.
func (s Snapshot) Format() string {
	var b strings.Builder
	for _, n := range s.Names() {
		fmt.Fprintf(&b, "%s %d\n", n, s.Counters[n])
	}
	gnames := make([]string, 0, len(s.Gauges))
	for n := range s.Gauges {
		gnames = append(gnames, n)
	}
	sort.Strings(gnames)
	for _, n := range gnames {
		fmt.Fprintf(&b, "%s %g\n", n, s.Gauges[n])
	}
	for _, n := range snapNames(s.Histograms) {
		h := s.Histograms[n]
		fmt.Fprintf(&b, "%s count=%d p50=%d p95=%d p99=%d max=%d\n",
			n, h.Count, h.P50, h.P95, h.P99, h.Max)
	}
	return b.String()
}
