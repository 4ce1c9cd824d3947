package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fpgapart/internal/bench"
	"fpgapart/internal/core"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/jobstore"
	"fpgapart/internal/kway"
	"fpgapart/internal/netlist"
	"fpgapart/internal/search"
	"fpgapart/internal/span"
)

// capture redirects stdout around fn.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	ferr := fn()
	w.Close()
	os.Stdout = old
	buf := make([]byte, 1<<20)
	n, _ := r.Read(buf)
	return string(buf[:n]), ferr
}

func writeCLB(t *testing.T) string {
	t.Helper()
	g, err := bench.Generate(bench.Params{Cells: 120, PrimaryIn: 10, PrimaryOut: 6, Seed: 1, Clustering: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c.clb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := hypergraph.Write(f, g); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunCLB(t *testing.T) {
	path := writeCLB(t)
	out, err := capture(t, func() error {
		return run(runConfig{path: path, threshold: 1, solutions: 3, seed: 1, verbose: true, check: true})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"partition: k=", "verify: partition is consistent", "Device"} {
		if !contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestRunGateNetlist(t *testing.T) {
	n, err := netlist.Random(netlist.RandomParams{Gates: 200, Inputs: 10, Outputs: 6, DffFrac: 0.1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c.gnl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := netlist.Write(f, n); err != nil {
		t.Fatal(err)
	}
	f.Close()
	out, err := capture(t, func() error {
		return run(runConfig{path: path, threshold: 1, solutions: 2, seed: 1, gate: true})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(out, "mapped") {
		t.Fatalf("missing mapping line:\n%s", out)
	}
}

func TestRunMissingFile(t *testing.T) {
	if _, err := capture(t, func() error {
		return run(runConfig{path: "/nonexistent.clb", threshold: 1, solutions: 1, seed: 1})
	}); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

func TestRunStatsJSONAndTimeout(t *testing.T) {
	path := writeCLB(t)
	stats := filepath.Join(t.TempDir(), "stats.jsonl")
	out, err := capture(t, func() error {
		return run(runConfig{path: path, threshold: 1, solutions: 3, seed: 1,
			timeout: time.Minute, statsJSON: stats})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(out, "partition: k=") {
		t.Fatalf("missing partition line:\n%s", out)
	}
	data, err := os.ReadFile(stats)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) == 0 {
		t.Fatal("empty stats file")
	}
	var sawSolution bool
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", ln, err)
		}
		if m["event"] == "solution" {
			sawSolution = true
		}
	}
	if !sawSolution {
		t.Fatalf("no solution events among %d lines", len(lines))
	}
}

// -metrics-out must leave a Prometheus text snapshot of the engine
// counters and phase timings next to the normal output.
func TestRunMetricsOut(t *testing.T) {
	path := writeCLB(t)
	metrics := filepath.Join(t.TempDir(), "metrics.prom")
	out, err := capture(t, func() error {
		return run(runConfig{path: path, threshold: 1, solutions: 3, seed: 1, metricsOut: metrics})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(out, "partition: k=") {
		t.Fatalf("missing partition line:\n%s", out)
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	snap := string(data)
	for _, want := range []string{
		"# TYPE fpgapart_carve_accepted_total counter",
		"# TYPE fpgapart_phase_seconds histogram",
		`fpgapart_phase_seconds_count{phase="parse"} 1`,
		`fpgapart_phase_seconds_count{phase="search"} 1`,
		"fpgapart_solutions_total",
	} {
		if !contains(snap, want) {
			t.Fatalf("snapshot missing %q:\n%s", want, snap)
		}
	}
}

// A stats-stream write failure must fail the run with a clear message
// (and thus a non-zero exit), never leave a silently truncated file.
// /dev/full accepts the open and fails every write with ENOSPC.
func TestRunStatsJSONWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available")
	}
	path := writeCLB(t)
	_, err := capture(t, func() error {
		return run(runConfig{path: path, threshold: 1, solutions: 2, seed: 1, statsJSON: "/dev/full"})
	})
	if err == nil {
		t.Fatal("expected error from failing stats stream")
	}
	if !strings.Contains(err.Error(), "stats stream /dev/full") {
		t.Fatalf("error should name the stats stream: %v", err)
	}
	if got := exitCode(err); got != 1 {
		t.Fatalf("exit code %d, want 1", got)
	}
}

func TestExitCodes(t *testing.T) {
	if got := exitCode(errors.New("boom")); got != 1 {
		t.Fatalf("generic error -> %d, want 1", got)
	}
	inf := &kway.InfeasibleError{Attempts: 5, First: errors.New("no carve")}
	if got := exitCode(fmt.Errorf("wrap: %w", inf)); got != 2 {
		t.Fatalf("infeasible -> %d, want 2", got)
	}
	budget := &search.ErrBudget{Cause: context.DeadlineExceeded, Folded: 0}
	if got := exitCode(fmt.Errorf("wrap: %w", budget)); got != 3 {
		t.Fatalf("budget -> %d, want 3", got)
	}
	// A timeout with no feasible solution wraps both; budget wins.
	both := fmt.Errorf("kway: %v: %w", inf, budget)
	if got := exitCode(both); got != 3 {
		t.Fatalf("budget+infeasible -> %d, want 3", got)
	}
	if got := exitCode(fmt.Errorf("wrap: %w", &netlist.ParseError{Format: "netlist", Line: 3})); got != 4 {
		t.Fatalf("netlist parse error -> %d, want 4", got)
	}
	if got := exitCode(fmt.Errorf("wrap: %w", &hypergraph.ParseError{Line: 7})); got != 4 {
		t.Fatalf("hypergraph parse error -> %d, want 4", got)
	}
}

// TestUsageExitCode runs the built binary: a bad flag and a wrong
// argument count exit 6 (never 2, which means "infeasible"), while -h
// prints the usage and exits 0.
func TestUsageExitCode(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "kpart")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"unknown flag", []string{"-no-such-flag", "c.clb"}, exitUsage},
		{"malformed flag", []string{"-solutions", "many", "c.clb"}, exitUsage},
		{"no arguments", nil, exitUsage},
		{"two arguments", []string{"a.clb", "b.clb"}, exitUsage},
		{"help", []string{"-h"}, 0},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		got := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			got = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: exit %d, want %d\n%s", tc.name, got, tc.want, out)
		}
		if !strings.Contains(string(out), "usage: kpart") {
			t.Errorf("%s: no usage text in output:\n%s", tc.name, out)
		}
	}
}

// Truncated or malformed input must surface line context and map to
// exit code 4 — not the bare "unexpected EOF"-style error the tool
// used to print.
func TestRunMalformedInput(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name, file, content string
		gate                bool
		wantInMsg           string
	}{
		{"truncated-clb", "t.clb", "circuit c\ninput a\ncell u0 area=2 in", false, "line 3"},
		{"empty-clb", "e.clb", "", false, "missing 'circuit'"},
		{"truncated-gnl", "t.gnl", "circuit c\ninput a\noutput y\nand y\n", true, "line 4"},
		{"bad-attr-clb", "b.clb", "circuit c\ncell u0 area=x\n", false, "col"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.file)
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := capture(t, func() error {
				return run(runConfig{path: path, threshold: 1, solutions: 1, seed: 1, gate: tc.gate})
			})
			if err == nil {
				t.Fatal("expected parse error")
			}
			if got := exitCode(err); got != 4 {
				t.Fatalf("exit code %d, want 4 (err: %v)", got, err)
			}
			if !strings.Contains(err.Error(), tc.wantInMsg) {
				t.Fatalf("error %q should contain %q", err, tc.wantInMsg)
			}
		})
	}
}

// TestRunStoreAndResume covers the durable-CLI contract: a store left
// mid-search by an interrupted run resumes with -resume, exits 0, and
// reports the resume point both on stdout and as resumed_from_attempt
// in the -stats-json stream.
func TestRunStoreAndResume(t *testing.T) {
	path := writeCLB(t)
	dir := filepath.Join(t.TempDir(), "store")

	// Fabricate the store a crash would leave: the submit record plus a
	// mid-search checkpoint (folded=3 of 6), no terminal record.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	g, err := hypergraph.Read(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	var cps []kway.SearchCheckpoint
	full, err := core.Partition(g, core.Options{
		Threshold: 1, Solutions: 6, Seed: 9,
		Checkpoint: func(cp kway.SearchCheckpoint) { cps = append(cps, cp) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 6 {
		t.Fatalf("checkpoints = %d, want 6", len(cps))
	}
	st, _, err := jobstore.Open(jobstore.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendSubmit(cliJobID, map[string]any{"circuit": path}); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendCheckpoint(cliJobID, cps[2]); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	stats := filepath.Join(t.TempDir(), "stats.jsonl")
	out, err := capture(t, func() error {
		return run(runConfig{path: path, threshold: 1, solutions: 6, seed: 9,
			resumeDir: dir, ckptEvery: 1, statsJSON: stats})
	})
	if err != nil {
		t.Fatalf("resume must exit 0, got: %v", err)
	}
	if !contains(out, "search: resumed from attempt 3") {
		t.Fatalf("missing resume line:\n%s", out)
	}
	wantCost := fmt.Sprintf("cost=%.0f", full.Summary.DeviceCost())
	if !contains(out, wantCost) {
		t.Fatalf("resumed run diverged from the uninterrupted one (%s):\n%s", wantCost, out)
	}
	data, err := os.ReadFile(stats)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"resumed_from_attempt":3`) {
		t.Fatalf("stats stream missing resumed_from_attempt:\n%s", data)
	}

	// The completed run appended its terminal record: a second -resume
	// replays the finished reduction (no search) and still exits 0.
	st2, jobs, err := jobstore.Open(jobstore.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var done bool
	for _, j := range jobs {
		if j.ID == cliJobID {
			done = j.Done
		}
	}
	st2.Close()
	if !done {
		t.Fatal("store not marked done after the resumed run completed")
	}
	out2, err := capture(t, func() error {
		return run(runConfig{path: path, threshold: 1, solutions: 6, seed: 9, resumeDir: dir, ckptEvery: 1})
	})
	if err != nil {
		t.Fatalf("second resume must exit 0, got: %v", err)
	}
	if !contains(out2, wantCost) {
		t.Fatalf("replayed run lost the result:\n%s", out2)
	}
}

// -trace-out must leave a well-formed Chrome trace_event file: the
// JSON-object container form with displayTimeUnit, balanced B/E pairs
// per (pid, tid), and the run's span vocabulary on the timeline.
func TestRunTraceOut(t *testing.T) {
	// A circuit too large for the biggest library device (272 usable
	// CLBs), so the carve path runs FM and the timeline records
	// fm-pass spans; -check adds the verify span.
	g, err := bench.Generate(bench.Params{Cells: 400, PrimaryIn: 14, PrimaryOut: 8, Seed: 3, Clustering: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.clb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := hypergraph.Write(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	out, err := capture(t, func() error {
		return run(runConfig{path: path, threshold: 1, solutions: 3, seed: 1, check: true, traceOut: tracePath})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(out, "partition: k=") {
		t.Fatalf("missing partition line:\n%s", out)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var ct span.ChromeTrace
	if err := json.Unmarshal(data, &ct); err != nil {
		t.Fatalf("trace file is not Chrome trace JSON: %v", err)
	}
	if ct.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want \"ms\"", ct.DisplayTimeUnit)
	}
	type lane struct{ pid, tid int }
	depth := make(map[lane]int)
	names := make(map[string]bool)
	for _, ev := range ct.TraceEvents {
		switch ev.Ph {
		case "B":
			depth[lane{ev.PID, ev.TID}]++
			names[ev.Name] = true
		case "E":
			depth[lane{ev.PID, ev.TID}]--
			if depth[lane{ev.PID, ev.TID}] < 0 {
				t.Fatalf("unbalanced E for pid=%d tid=%d", ev.PID, ev.TID)
			}
		case "M":
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	for k, d := range depth {
		if d != 0 {
			t.Fatalf("pid=%d tid=%d: %d unclosed B event(s)", k.pid, k.tid, d)
		}
	}
	for _, want := range []string{"job", "parse", "search", "attempt", "fm-pass", "fold", "verify"} {
		if !names[want] {
			t.Fatalf("timeline missing %q span (have %v)", want, names)
		}
	}
}

// An unwritable -trace-out file must fail the run with the dedicated
// exit code 5, mirroring the stats-stream contract: a deliverable the
// tool could not write is never a silent success.
func TestRunTraceOutWriteError(t *testing.T) {
	path := writeCLB(t)
	_, err := capture(t, func() error {
		return run(runConfig{path: path, threshold: 1, solutions: 2, seed: 1,
			traceOut: filepath.Join(t.TempDir(), "no-such-dir", "trace.json")})
	})
	if err == nil {
		t.Fatal("expected error from unwritable trace path")
	}
	if !strings.Contains(err.Error(), "trace export") {
		t.Fatalf("error should name the trace export: %v", err)
	}
	if got := exitCode(err); got != 5 {
		t.Fatalf("exit code %d, want 5", got)
	}
}

func TestRunJSONAndParts(t *testing.T) {
	path := writeCLB(t)
	dir := filepath.Join(t.TempDir(), "parts")
	out, err := capture(t, func() error {
		return run(runConfig{path: path, threshold: 1, solutions: 3, seed: 1, outDir: dir, jsonOut: true})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(out, `"device_cost"`) || !contains(out, `"parts"`) {
		t.Fatalf("missing JSON output:\n%s", out)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no part files written")
	}
	// Every exported part parses back as a valid circuit.
	for _, fe := range files {
		f, err := os.Open(filepath.Join(dir, fe.Name()))
		if err != nil {
			t.Fatal(err)
		}
		g, err := hypergraph.Read(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", fe.Name(), err)
		}
		if g.NumCells() == 0 {
			t.Fatalf("%s: empty part", fe.Name())
		}
	}
}
