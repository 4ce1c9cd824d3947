package kway_test

import (
	"reflect"
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/kway"
	"fpgapart/internal/library"
	"fpgapart/internal/span"
	"fpgapart/internal/trace"
)

// TestMultilevelPartitionVerifies is the engine-level differential:
// the same medium circuit partitioned flat and through the V-cycle
// (MultilevelMinCells lowered so real carves route through it). The
// multilevel result must pass the full verifier and its device cost
// must stay within a fixed tolerance of the flat engine's.
func TestMultilevelPartitionVerifies(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		g, err := bench.Generate(bench.Params{
			Cells: 900, PrimaryIn: 20, PrimaryOut: 12, Seed: seed, Clustering: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		opts := kway.Options{Library: library.XC3000(), Solutions: 6, Seed: 7, Verify: true}
		flat, err := kway.Partition(g, opts)
		if err != nil {
			t.Fatalf("seed %d: flat: %v", seed, err)
		}
		opts.Multilevel = true
		opts.MultilevelMinCells = 200
		ml, err := kway.Partition(g, opts)
		if err != nil {
			t.Fatalf("seed %d: multilevel: %v", seed, err)
		}
		if err := ml.Verify(g); err != nil {
			t.Fatalf("seed %d: multilevel result failed verification: %v", seed, err)
		}
		fc, mc := flat.Summary.DeviceCost(), ml.Summary.DeviceCost()
		t.Logf("seed %d: flat cost %.0f (k=%d), multilevel cost %.0f (k=%d)",
			seed, fc, flat.Summary.K(), mc, ml.Summary.K())
		// Fixed tolerance: the V-cycle seeds different carves, so costs
		// differ, but never by more than 25%.
		if mc > fc*1.25 {
			t.Fatalf("seed %d: multilevel cost %.0f worse than flat %.0f beyond 25%% tolerance", seed, mc, fc)
		}
	}
}

// TestMultilevelDeterministicAcrossWorkers pins the Workers contract
// through the whole engine with the V-cycle enabled: fixed-seed runs
// must agree regardless of pool size.
func TestMultilevelDeterministicAcrossWorkers(t *testing.T) {
	g, err := bench.Generate(bench.Params{
		Cells: 700, PrimaryIn: 16, PrimaryOut: 10, Seed: 5, Clustering: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := kway.Options{
		Library: library.XC3000(), Solutions: 4, Seed: 9,
		Multilevel: true, MultilevelMinCells: 200,
	}
	a, err := kway.Partition(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 3
	b, err := kway.Partition(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ra, rb := goldenRender(t, a), goldenRender(t, b); ra != rb {
		t.Fatal("multilevel partition diverged across worker counts")
	}
}

// TestPhaseEventsMatchSpans runs a multilevel, parallel-refinement job
// with a sink and a span tracer armed (each on its own fake clock):
// every engine phase must surface once as a KindPhase event and once as
// a span of the same name, per attempt.
func TestPhaseEventsMatchSpans(t *testing.T) {
	g, err := bench.Generate(bench.Params{
		Cells: 700, PrimaryIn: 16, PrimaryOut: 10, Seed: 5, Clustering: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	tracer := span.NewTracer(span.Options{Process: "kway-test", Now: goldenClock(), Origin: 1, MaxSpansPerTrace: 1 << 20})
	root := tracer.Root(span.DeriveTraceID("phases", 9, 4), 0)
	var rec trace.Recorder
	if _, err := kway.Partition(g, kway.Options{
		Library: library.XC3000(), Solutions: 4, Seed: 9, Verify: true,
		Multilevel: true, MultilevelMinCells: 200, RefineWorkers: 2,
		Hook: trace.Hook{Sink: &rec, Spans: root, Now: goldenClock()},
	}); err != nil {
		t.Fatal(err)
	}
	type key struct {
		name    string
		attempt int
	}
	events, spans := map[key]int{}, map[key]int{}
	for _, e := range rec.Filter(trace.KindPhase) {
		events[key{e.Phase, e.Attempt}]++
	}
	recorded, dropped := tracer.Collector().Trace(root.TraceID())
	if dropped != 0 {
		t.Fatalf("collector dropped %d spans", dropped)
	}
	for _, sp := range recorded {
		switch sp.Name {
		case trace.PhaseSearch, trace.PhaseFold, trace.PhaseVerify, trace.PhaseCoarsen, trace.PhaseUncoarsen:
			spans[key{sp.Name, sp.Attempt}]++
		}
	}
	if !reflect.DeepEqual(events, spans) {
		t.Fatalf("phase events %v\ndisagree with spans %v", events, spans)
	}
	perPhase := map[string]int{}
	for k, n := range events {
		perPhase[k.name] += n
	}
	for _, p := range []string{trace.PhaseSearch, trace.PhaseFold, trace.PhaseVerify, trace.PhaseCoarsen, trace.PhaseUncoarsen} {
		if perPhase[p] == 0 {
			t.Errorf("no %q phase recorded (%v)", p, perPhase)
		}
	}
}
