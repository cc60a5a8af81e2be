package obs

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"qcdoc/internal/telemetry"
)

func get(t *testing.T, srv *Server, path string) (int, string) {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

func TestMetricName(t *testing.T) {
	cases := map[string]string{
		"node3/scu/words_sent":     "qcdoc_node3_scu_words_sent",
		"machine/gsum_rtt_ps":      "qcdoc_machine_gsum_rtt_ps",
		"node0/link/X+/resends":    "qcdoc_node0_link_X__resends",
		"machine/link_utilization": "qcdoc_machine_link_utilization",
	}
	for in, want := range cases {
		if got := MetricName(in); got != want {
			t.Errorf("MetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	var h telemetry.Histogram
	for v := uint64(1); v <= 100; v++ {
		h.Record(v * 1000)
	}
	snap := telemetry.Snapshot{
		Counters:   map[string]uint64{"node0/scu/words_sent": 42, "machine/scu/resends": 7},
		Gauges:     map[string]float64{"machine/efficiency": 0.44},
		Histograms: map[string]telemetry.HistogramSnapshot{"machine/gsum_rtt_ps": h.Snapshot()},
	}
	var srv Server
	srv.PublishMetrics(12345, snap)
	code, body := get(t, &srv, "/metrics")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{
		"qcdoc_sim_time_ps 12345",
		"qcdoc_node0_scu_words_sent 42",
		"qcdoc_machine_scu_resends 7",
		"qcdoc_machine_efficiency 0.44",
		`qcdoc_machine_gsum_rtt_ps{quantile="0.5"}`,
		"qcdoc_machine_gsum_rtt_ps_count 100",
		"# TYPE qcdoc_machine_gsum_rtt_ps summary",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
	// Determinism: two scrapes of the same published snapshot are
	// byte-identical.
	_, body2 := get(t, &srv, "/metrics")
	if body != body2 {
		t.Error("two scrapes of the same snapshot differ")
	}
}

func TestTraceEndpoint(t *testing.T) {
	var srv Server
	if code, _ := get(t, &srv, "/trace"); code != 404 {
		t.Errorf("unpublished /trace status %d, want 404", code)
	}
	srv.PublishTrace([]byte(`{"traceEvents":[]}`))
	code, body := get(t, &srv, "/trace")
	if code != 200 || body != `{"traceEvents":[]}` {
		t.Errorf("/trace = %d %q", code, body)
	}
}

func TestFleetEndpoint(t *testing.T) {
	var srv Server
	if code, _ := get(t, &srv, "/fleet"); code != 404 {
		t.Errorf("unpublished /fleet status %d, want 404", code)
	}
	srv.PublishFleet(FleetStatus{
		Total: 4, Done: 2, Failed: 1,
		Runs: []FleetRun{{Name: "wilson 4x4x4x4", Done: true, Converged: true, Iterations: 12}},
	})
	code, body := get(t, &srv, "/fleet")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{`"total": 4`, `"done": 2`, `"failed": 1`, `"wilson 4x4x4x4"`} {
		if !strings.Contains(body, want) {
			t.Errorf("/fleet missing %q in:\n%s", want, body)
		}
	}
	// Fleet progress also shows on /metrics.
	_, metrics := get(t, &srv, "/metrics")
	if !strings.Contains(metrics, "qcdoc_fleet_runs_total 4") {
		t.Errorf("/metrics missing fleet counters:\n%s", metrics)
	}
}
