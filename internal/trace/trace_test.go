package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"fpgapart/internal/span"
)

func TestAggCounters(t *testing.T) {
	var a Agg
	a.Event(Event{Kind: KindFMPass, Moves: 10})
	a.Event(Event{Kind: KindFMPass, Moves: 5})
	a.Event(Event{Kind: KindCarveAccepted, Replicas: 2, Rollbacks: 1})
	a.Event(Event{Kind: KindCarveRejected, Rollbacks: 3, Reason: "terminals"})
	a.Event(Event{Kind: KindSolution, Feasible: true, Cost: 100})
	a.Event(Event{Kind: KindSolution, Feasible: false})
	got := a.Snapshot()
	want := Counters{
		Moves: 15, Passes: 2,
		Carves: 1, RejectedCarves: 1,
		Replicas: 2, Rollbacks: 4,
		Solutions: 2, Feasible: 1,
	}
	if got != want {
		t.Fatalf("counters %+v, want %+v", got, want)
	}
}

func TestAggConcurrent(t *testing.T) {
	var a Agg
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				a.Event(Event{Kind: KindFMPass, Moves: 1})
			}
		}()
	}
	wg.Wait()
	if c := a.Snapshot(); c.Passes != 8000 || c.Moves != 8000 {
		t.Fatalf("lost events: %+v", c)
	}
}

func TestJSONLWellFormed(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	events := []Event{
		{Kind: KindFMPass, Attempt: 2, Pass: 1, Moves: 40, Cut: 12},
		{Kind: KindCarveAccepted, Attempt: 2, Area: 64, Terminals: 30, Moves: 40, Pass: 3, Replicas: 2, Rollbacks: 1, Device: "XC3042"},
		{Kind: KindCarveRejected, Attempt: 0, Area: 80, Terminals: 99, Reason: "terminals", Device: "XC3020"},
		{Kind: KindSolution, Attempt: 0, Feasible: true, Cost: 756.5, Parts: 4, Improved: true},
		{Kind: KindSolution, Attempt: 1, Feasible: false, Reason: "no feasible carve"},
		// Reasons can carry user bytes (a board name): control bytes,
		// quotes and invalid UTF-8 must still yield valid JSON.
		{Kind: KindSolution, Attempt: 5, Reason: "bell\a"},
		{Kind: KindSolution, Attempt: 6, Reason: "ctl\x01 \"q\" \\"},
		{Kind: KindSolution, Attempt: 7, Reason: "bad\xffutf8 é"},
	}
	wantReason := map[int]string{5: "bell\a", 6: "ctl\x01 \"q\" \\", 7: "bad\ufffdutf8 é"}
	for _, e := range events {
		j.Event(e)
	}
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != len(events) {
		t.Fatalf("%d lines, want %d:\n%s", len(lines), len(events), buf.String())
	}
	for i, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %d not valid JSON: %v\n%s", i, err, ln)
		}
		if m["event"] != events[i].Kind.String() {
			t.Fatalf("line %d event tag %v, want %v", i, m["event"], events[i].Kind.String())
		}
		if int(m["attempt"].(float64)) != events[i].Attempt {
			t.Fatalf("line %d attempt %v, want %d", i, m["attempt"], events[i].Attempt)
		}
		if want, ok := wantReason[events[i].Attempt]; ok && m["reason"] != want {
			t.Fatalf("line %d reason %q, want %q", i, m["reason"], want)
		}
	}
	// Spot-check typed fields survive the hand-rolled encoder.
	var sol map[string]any
	if err := json.Unmarshal([]byte(lines[3]), &sol); err != nil {
		t.Fatal(err)
	}
	if sol["cost"].(float64) != 756.5 || sol["improved"] != true {
		t.Fatalf("solution line mangled: %v", sol)
	}
	var rej map[string]any
	if err := json.Unmarshal([]byte(lines[2]), &rej); err != nil {
		t.Fatal(err)
	}
	if rej["reason"] != "terminals" || rej["device"] != "XC3020" {
		t.Fatalf("rejection line mangled: %v", rej)
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	return 0, bytes.ErrTooLarge
}

func TestJSONLStopsOnWriteError(t *testing.T) {
	w := &failWriter{}
	j := NewJSONL(w)
	j.Event(Event{Kind: KindFMPass})
	j.Event(Event{Kind: KindFMPass})
	if j.Err() == nil {
		t.Fatal("expected write error")
	}
	if w.n != 1 {
		t.Fatalf("writer called %d times after error, want 1", w.n)
	}
}

func TestMulti(t *testing.T) {
	var a, b Recorder
	s := Multi(nil, &a, nil, &b)
	s.Event(Event{Kind: KindSolution})
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Fatal("multi sink dropped events")
	}
	if Multi(nil, nil) != nil {
		t.Fatal("all-nil Multi should collapse to nil for the fast path")
	}
	if Multi(&a) != Sink(&a) {
		t.Fatal("single-sink Multi should return the sink itself")
	}
}

// orderSink appends its tag to a shared log on every event, recording
// the fan-out order across sinks.
type orderSink struct {
	tag string
	log *[]string
}

func (s orderSink) Event(Event) { *s.log = append(*s.log, s.tag) }

func TestMultiFanOutOrder(t *testing.T) {
	// Every event must reach the sinks in registration order — sinks
	// like the progress printer rely on seeing events before the
	// aggregator snapshots them.
	var log []string
	s := Multi(orderSink{"a", &log}, nil, orderSink{"b", &log}, orderSink{"c", &log})
	s.Event(Event{Kind: KindFMPass})
	s.Event(Event{Kind: KindSolution})
	want := []string{"a", "b", "c", "a", "b", "c"}
	if len(log) != len(want) {
		t.Fatalf("fan-out log %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("fan-out order %v, want %v", log, want)
		}
	}
}

func TestMultiCollapse(t *testing.T) {
	if Multi() != nil {
		t.Fatal("empty Multi should collapse to nil")
	}
	if Multi(nil) != nil {
		t.Fatal("single-nil Multi should collapse to nil")
	}
	var r Recorder
	// Nil sinks are dropped before the arity check, so nil-padded single
	// sinks still take the direct (non-fanout) path.
	if Multi(nil, &r, nil) != Sink(&r) {
		t.Fatal("nil-padded single-sink Multi should return the sink itself")
	}
}

func TestJSONLPhaseEvent(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Event(Event{Kind: KindPhase, Attempt: -1, Phase: PhaseSearch, Dur: 1500000})
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("phase line not valid JSON: %v\n%s", err, buf.String())
	}
	if m["event"] != "phase" || m["phase"] != PhaseSearch || m["dur_ns"].(float64) != 1.5e6 {
		t.Fatalf("phase line mangled: %v", m)
	}
	if int(m["attempt"].(float64)) != -1 {
		t.Fatalf("attempt %v, want -1", m["attempt"])
	}
}

func TestRecorderFilter(t *testing.T) {
	var r Recorder
	r.Event(Event{Kind: KindFMPass})
	r.Event(Event{Kind: KindSolution, Attempt: 1})
	r.Event(Event{Kind: KindSolution, Attempt: 2})
	sols := r.Filter(KindSolution)
	if len(sols) != 2 || sols[0].Attempt != 1 || sols[1].Attempt != 2 {
		t.Fatalf("filter returned %+v", sols)
	}
	if got := r.Filter(KindPhase); len(got) != 0 {
		t.Fatalf("filter of absent kind returned %+v", got)
	}
	// Filter returns copies in arrival order without consuming them.
	if again := r.Filter(KindSolution); len(again) != 2 {
		t.Fatalf("second filter returned %+v", again)
	}
}

func TestAggEventAllocFree(t *testing.T) {
	var a Agg
	if avg := testing.AllocsPerRun(100, func() {
		a.Event(Event{Kind: KindFMPass, Moves: 3})
		a.Event(Event{Kind: KindCarveAccepted, Replicas: 1})
	}); avg != 0 {
		t.Fatalf("Agg.Event allocates %v times", avg)
	}
}

func TestJSONLSteadyStateAllocFree(t *testing.T) {
	j := NewJSONL(new(bytes.Buffer))
	e := Event{Kind: KindCarveAccepted, Attempt: 3, Area: 64, Terminals: 12, Device: "XC3042"}
	j.Event(e) // warm the buffer
	if avg := testing.AllocsPerRun(100, func() { j.Event(e) }); avg > 1 {
		t.Fatalf("JSONL.Event allocates %v times at steady state", avg)
	}
}

// A phase reads the hook's clock exactly twice, and only while a sink
// is armed; its span keeps the tracer's clock either way.
func TestHookPhase(t *testing.T) {
	reads := 0
	now := func() time.Time { reads++; return time.Unix(0, int64(reads)*int64(time.Millisecond)) }
	tr := span.NewTracer(span.Options{Now: func() time.Time { return time.Unix(0, 0) }, Origin: 1})
	root := tr.Root(span.DeriveTraceID("hook", 1, 1), 0)

	Hook{Spans: root, Attempt: 3, Now: now}.Phase(PhaseFold).End()
	if reads != 0 {
		t.Fatalf("disarmed sink: clock read %d times, want 0", reads)
	}
	var rec Recorder
	Hook{Sink: &rec, Spans: root, Attempt: 3, Now: now}.Phase(PhaseFold).End()
	if reads != 2 {
		t.Fatalf("armed sink: clock read %d times, want 2", reads)
	}
	got := rec.Filter(KindPhase)
	if len(got) != 1 || got[0].Phase != PhaseFold || got[0].Attempt != 3 || got[0].Dur != time.Millisecond {
		t.Fatalf("phase events %+v", got)
	}
	spans, _ := tr.Collector().Trace(root.TraceID())
	if len(spans) != 2 || spans[0].Name != PhaseFold || spans[1].Attempt != 3 {
		t.Fatalf("phase spans %+v", spans)
	}
}
