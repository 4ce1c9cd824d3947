package fm

import (
	"testing"

	"fpgapart/internal/hypergraph"
	"fpgapart/internal/replication"
	"fpgapart/internal/telemetry"
	"fpgapart/internal/trace"
)

// A steady-state FM pass must not allocate: the gain buckets are a
// fixed node pool, candidate gains come from the state's maintained
// values or its reusable scratch, rollback restores a pre-sized
// checkpoint, and every growable buffer has reached its high-water mark
// after the warm-up run. The trace sink must not break this: the nil
// (zero-sink) path costs a predicted branch, and the aggregating sink's
// per-pass event is a stack-built value consumed by atomic adds.
func TestFMPassAllocs(t *testing.T) {
	for _, tc := range []struct {
		name      string
		threshold int
		replOnly  bool
		sink      trace.Sink
	}{
		{"plain", NoReplication, false, nil},
		{"replication", 0, false, nil},
		{"replication-only", 0, true, nil},
		{"plain-traced", NoReplication, false, &trace.Agg{}},
		{"replication-traced", 0, false, &trace.Agg{}},
		// The telemetry bridge (histograms + counters) must be as
		// allocation-free on the pass loop as the aggregating sink.
		{"bridge-traced", NoReplication, false, telemetry.NewBridge(telemetry.NewRegistry())},
		{"bridge-replication", 0, false, telemetry.NewBridge(telemetry.NewRegistry())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := testGraph(t, 300, 5, 0.5)
			st, err := replication.NewState(g, RandomAssign(g, 5))
			if err != nil {
				t.Fatal(err)
			}
			var r Runner
			cfg := equalCfg(g, tc.threshold, 5)
			cfg.Trace = tc.sink
			if _, err := r.Run(st, cfg); err != nil {
				t.Fatal(err)
			}
			// The run above converged and warmed every buffer. A further
			// pass applies moves and rolls them all back, so it is
			// repeatable — exactly the steady state the engine lives in.
			e := &r.e
			e.cfg = cfg
			e.replOnly = tc.replOnly
			// Bracket each pass with the disarmed span scope exactly as
			// the phase loop does: a zero Scope must cost a predicted
			// branch, never an allocation.
			if avg := testing.AllocsPerRun(5, func() {
				run := e.cfg.Spans.Start("fm-pass", e.cfg.TraceAttempt)
				e.pass()
				run.End()
			}); avg != 0 {
				t.Fatalf("steady-state pass allocates %v times", avg)
			}
		})
	}
}

// BenchmarkGainUpdate compares the cost of keeping single-move gains
// current across one applied move: the incremental criticality-delta
// maintenance (folded into Apply/Undo) against the semantic
// recomputation over the touched neighborhood that a bucket refresh
// previously required.
func BenchmarkGainUpdate(b *testing.B) {
	g := testGraph(b, 600, 11, 0.5)
	st, err := replication.NewState(g, RandomAssign(g, 11))
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumCells()
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := hypergraph.CellID(i % n)
			tok, err := st.Apply(replication.Move{Cell: c, Kind: replication.SingleMove})
			if err != nil {
				b.Fatal(err)
			}
			if err := st.Undo(tok); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recompute", func(b *testing.B) {
		var buf []hypergraph.CellID
		for i := 0; i < b.N; i++ {
			c := hypergraph.CellID(i % n)
			tok, err := st.Apply(replication.Move{Cell: c, Kind: replication.SingleMove})
			if err != nil {
				b.Fatal(err)
			}
			buf = st.TouchedCells(c, buf)
			for _, t := range buf {
				_ = st.MustGain(replication.Move{Cell: t, Kind: replication.SingleMove})
			}
			if err := st.Undo(tok); err != nil {
				b.Fatal(err)
			}
		}
	})
}
