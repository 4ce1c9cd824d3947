package server

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fpgapart/internal/telemetry"
)

// scrape fetches /metrics and returns the exposition text.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue finds the sample with the given name-plus-labels prefix
// and returns its value. Exposition lines are "<series> <value>".
func metricValue(t *testing.T, exposition, series string) float64 {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(exposition))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, series+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, series+" "), 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("series %q not found in exposition:\n%s", series, exposition)
	return 0
}

// The acceptance scrape: after a completed job, /metrics must show a
// non-zero request-latency histogram count, the engine's carve
// counters fed through the bridge, the queue-depth gauge, and the
// job-outcome counter.
func TestMetricsAfterCompletedJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// 400 cells overflow the largest library device, so the search must
	// actually carve (and run FM) rather than fit the whole circuit.
	resp, st := postJSON(t, ts.URL+"/v1/partition", JobRequest{Circuit: circuitText(t, 400, 1), Solutions: 3, Seed: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync: %d (%+v)", resp.StatusCode, st)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("response missing X-Request-Id")
	}

	out := scrape(t, ts.URL)
	if n := metricValue(t, out, `fpgapart_http_request_duration_seconds_count{endpoint="/v1/partition"}`); n < 1 {
		t.Fatalf("request latency count = %v, want >= 1", n)
	}
	if n := metricValue(t, out, "fpgapart_carve_accepted_total"); n < 1 {
		t.Fatalf("carve accepted = %v, want >= 1 (bridge not fed?)", n)
	}
	if n := metricValue(t, out, "fpgapart_fm_passes_total"); n < 1 {
		t.Fatalf("fm passes = %v, want >= 1", n)
	}
	if n := metricValue(t, out, "fpgapart_queue_depth"); n != 0 {
		t.Fatalf("queue depth = %v, want 0 at idle", n)
	}
	if n := metricValue(t, out, `fpgapart_jobs_total{outcome="done"}`); n != 1 {
		t.Fatalf("jobs done = %v, want 1", n)
	}
	if n := metricValue(t, out, `fpgapart_http_requests_total{endpoint="/v1/partition",code="200"}`); n < 1 {
		t.Fatalf("request counter = %v, want >= 1", n)
	}
	// Engine phases (parse at admission, search/fold/verify per job)
	// land in the phase histogram.
	for _, phase := range []string{"parse", "search"} {
		if n := metricValue(t, out, `fpgapart_phase_seconds_count{phase="`+phase+`"}`); n < 1 {
			t.Fatalf("phase %q count = %v, want >= 1", phase, n)
		}
	}
}

// A shared registry lets an operator merge several components into one
// exposition; the server must instrument into the provided registry
// rather than a private one.
func TestMetricsSharedRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("myapp_custom_total", "A caller-owned metric.").Add(7)
	_, ts := newTestServer(t, Config{Metrics: reg})
	out := scrape(t, ts.URL)
	if n := metricValue(t, out, "myapp_custom_total"); n != 7 {
		t.Fatalf("caller metric = %v, want 7", n)
	}
	metricValue(t, out, "fpgapart_workers") // server metrics live in the same registry
}

// fakeClock is a manually advanced clock for Config.Clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock(t time.Time) *fakeClock { return &fakeClock{t: t} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestFakeClock(t *testing.T) {
	t0 := time.Unix(1000, 0)
	c := newFakeClock(t0)
	if !c.Now().Equal(t0) {
		t.Fatal("fake clock start")
	}
	c.Advance(3 * time.Second)
	if got := c.Now().Sub(t0); got != 3*time.Second {
		t.Fatalf("advance: %v", got)
	}
}

// An injected fake clock must drive the latency histogram: with no
// advance between readings every observation is exactly zero, so the
// whole count lands in the first bucket — deterministic latency
// metrics for tests.
func TestMetricsFakeClock(t *testing.T) {
	fc := newFakeClock(time.Unix(1_700_000_000, 0))
	_, ts := newTestServer(t, Config{Clock: fc.Now})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	out := scrape(t, ts.URL)
	count := metricValue(t, out, `fpgapart_http_request_duration_seconds_count{endpoint="/healthz"}`)
	first := metricValue(t, out, `fpgapart_http_request_duration_seconds_bucket{endpoint="/healthz",le="0.001"}`)
	if count != 1 || first != 1 {
		t.Fatalf("fake-clock latency: count=%v first-bucket=%v, want 1/1", count, first)
	}
}

// The readiness probe is JSON in both states and flips to 503 with the
// drain flag set the moment Shutdown starts — the regression test for
// the drain transition.
func TestReadyzJSONDrainTransition(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	getReady := func(wantCode int) readyzStatus {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("readyz: %d, want %d", resp.StatusCode, wantCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("readyz content type %q", ct)
		}
		var rs readyzStatus
		if err := json.NewDecoder(resp.Body).Decode(&rs); err != nil {
			t.Fatalf("readyz body not JSON: %v", err)
		}
		return rs
	}

	if rs := getReady(http.StatusOK); !rs.Ready || rs.Draining {
		t.Fatalf("serving state: %+v", rs)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if rs := getReady(http.StatusServiceUnavailable); rs.Ready || !rs.Draining || rs.QueueDepth != 0 {
		t.Fatalf("draining state: %+v", rs)
	}
}

// Admission rejections must be visible as shed counters by reason.
func TestShedCounters(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	resp, _ := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Circuit: circuitText(t, 120, 1), Solutions: 1, Seed: 1})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d", resp.StatusCode)
	}
	out := scrape(t, ts.URL)
	if n := metricValue(t, out, `fpgapart_admission_rejects_total{reason="draining"}`); n != 1 {
		t.Fatalf("draining shed counter = %v, want 1", n)
	}
}

// pprof and buildinfo are operator surface: buildinfo is always on,
// pprof only behind the flag.
func TestDebugEndpoints(t *testing.T) {
	_, off := newTestServer(t, Config{})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without flag: %d, want 404", resp.StatusCode)
	}

	_, on := newTestServer(t, Config{EnablePprof: true})
	for _, ep := range []string{"/debug/pprof/", "/debug/buildinfo"} {
		resp, err := http.Get(on.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d\n%s", ep, resp.StatusCode, body)
		}
		if len(body) == 0 {
			t.Fatalf("%s: empty body", ep)
		}
	}
}
