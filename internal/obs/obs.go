// Package obs is the fleet's service surface: a tiny net/http server
// that exposes the observability plane — Prometheus-text /metrics,
// Chrome-trace /trace, and live campaign progress on /fleet — without
// ever touching the simulation. The simulator side publishes immutable
// snapshots (taken on the engine goroutine through the pull registry,
// DESIGN.md §10) into the server; HTTP handlers only ever read the
// last published copy under an RWMutex. Nothing here holds a reference
// into a live machine, so scraping cannot perturb a run — the zero-
// perturbation contract extends to the wire.
package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

	"qcdoc/internal/event"
	"qcdoc/internal/telemetry"
)

// FleetRun is one campaign run's outcome as shown on /fleet.
type FleetRun struct {
	Name       string `json:"name"`
	Done       bool   `json:"done"`
	Converged  bool   `json:"converged,omitempty"`
	Iterations int    `json:"iterations,omitempty"`
	Attempts   int    `json:"attempts,omitempty"`
	Digest     string `json:"digest,omitempty"`
	Err        string `json:"err,omitempty"`
}

// FleetStatus is the live campaign view served as JSON on /fleet.
type FleetStatus struct {
	Total  int        `json:"total"`
	Done   int        `json:"done"`
	Failed int        `json:"failed"`
	Digest string     `json:"digest,omitempty"`
	Runs   []FleetRun `json:"runs,omitempty"`
	// Hists is the campaign-aggregate latency view (fleet.Aggregate).
	Hists map[string]telemetry.HistogramSnapshot `json:"histograms,omitempty"`
}

// Server holds the last published observation of each kind. The zero
// value is ready to use. Publish methods take ownership of their
// argument — the caller must not mutate it afterwards; handlers read
// it forever.
type Server struct {
	mu       sync.RWMutex
	at       event.Time
	snap     telemetry.Snapshot
	hasSnap  bool
	trace    []byte
	fleet    FleetStatus
	hasFleet bool
}

// PublishMetrics installs a telemetry snapshot (and the simulated time
// it was taken at) as the current /metrics content.
func (s *Server) PublishMetrics(at event.Time, snap telemetry.Snapshot) {
	s.mu.Lock()
	s.at, s.snap, s.hasSnap = at, snap, true
	s.mu.Unlock()
}

// PublishTrace installs a rendered Chrome-trace JSON document as the
// current /trace content.
func (s *Server) PublishTrace(trace []byte) {
	s.mu.Lock()
	s.trace = trace
	s.mu.Unlock()
}

// PublishFleet installs the current campaign status. Called once per
// completed run from the campaign's OnResult hook, then once more with
// the final digest.
func (s *Server) PublishFleet(fs FleetStatus) {
	s.mu.Lock()
	s.fleet, s.hasFleet = fs, true
	s.mu.Unlock()
}

// Handler returns the HTTP mux serving /metrics, /trace, and /fleet.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/fleet", s.handleFleet)
	return mux
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	at, snap, hasSnap := s.at, s.snap, s.hasSnap
	fleet, hasFleet := s.fleet, s.hasFleet
	s.mu.RUnlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b bytes.Buffer
	if hasSnap {
		renderMetrics(&b, at, snap)
	}
	if hasFleet {
		renderFleetMetrics(&b, fleet)
	}
	w.Write(b.Bytes())
}

func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	trace := s.trace
	s.mu.RUnlock()
	if trace == nil {
		http.Error(w, "no trace published", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="qcdoc-trace.json"`)
	w.Write(trace)
}

func (s *Server) handleFleet(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	fleet, has := s.fleet, s.hasFleet
	s.mu.RUnlock()
	if !has {
		http.Error(w, "no campaign published", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(fleet)
}

// MetricName sanitizes a registry name ("node3/scu/words_sent") into a
// Prometheus metric name ("qcdoc_node3_scu_words_sent").
func MetricName(name string) string {
	var b strings.Builder
	b.WriteString("qcdoc_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// renderMetrics writes a snapshot in Prometheus text exposition format,
// fully sorted so identical snapshots render identical bytes.
func renderMetrics(b *bytes.Buffer, at event.Time, snap telemetry.Snapshot) {
	fmt.Fprintf(b, "# TYPE qcdoc_sim_time_ps gauge\nqcdoc_sim_time_ps %d\n", uint64(at))
	for _, n := range snap.Names() {
		m := MetricName(n)
		fmt.Fprintf(b, "# TYPE %s counter\n%s %d\n", m, m, snap.Counters[n])
	}
	gnames := make([]string, 0, len(snap.Gauges))
	for n := range snap.Gauges {
		gnames = append(gnames, n)
	}
	sort.Strings(gnames)
	for _, n := range gnames {
		m := MetricName(n)
		fmt.Fprintf(b, "# TYPE %s gauge\n%s %g\n", m, m, snap.Gauges[n])
	}
	hnames := make([]string, 0, len(snap.Histograms))
	for n := range snap.Histograms {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	for _, n := range hnames {
		renderHistogram(b, MetricName(n), snap.Histograms[n])
	}
}

// renderHistogram writes one latency distribution as a Prometheus
// summary: quantile-labeled samples plus _sum, _count, and _max.
func renderHistogram(b *bytes.Buffer, m string, h telemetry.HistogramSnapshot) {
	fmt.Fprintf(b, "# TYPE %s summary\n", m)
	fmt.Fprintf(b, "%s{quantile=\"0.5\"} %d\n", m, h.P50)
	fmt.Fprintf(b, "%s{quantile=\"0.95\"} %d\n", m, h.P95)
	fmt.Fprintf(b, "%s{quantile=\"0.99\"} %d\n", m, h.P99)
	fmt.Fprintf(b, "%s_sum %d\n", m, h.Sum)
	fmt.Fprintf(b, "%s_count %d\n", m, h.Count)
	fmt.Fprintf(b, "%s_max %d\n", m, h.Max)
}

// renderFleetMetrics writes the campaign progress counters and the
// campaign-aggregate latency summaries.
func renderFleetMetrics(b *bytes.Buffer, fs FleetStatus) {
	fmt.Fprintf(b, "# TYPE qcdoc_fleet_runs_total gauge\nqcdoc_fleet_runs_total %d\n", fs.Total)
	fmt.Fprintf(b, "# TYPE qcdoc_fleet_runs_done gauge\nqcdoc_fleet_runs_done %d\n", fs.Done)
	fmt.Fprintf(b, "# TYPE qcdoc_fleet_runs_failed gauge\nqcdoc_fleet_runs_failed %d\n", fs.Failed)
	hnames := make([]string, 0, len(fs.Hists))
	for n := range fs.Hists {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	for _, n := range hnames {
		renderHistogram(b, MetricName("fleet/"+n), fs.Hists[n])
	}
}

// DigestString renders a digest the way /fleet shows it.
func DigestString(d uint64) string { return fmt.Sprintf("%#x", d) }
