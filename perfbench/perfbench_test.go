package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"fpgapart/internal/span"
)

// TestBenchmarkJSON keeps BENCHMARK.json and the tables the program
// reports from in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q %q", i, bj.Workloads[i], w.Name, w.Why)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			bound := 0.0
			if g.Bound != nil {
				bound = *g.Bound
			}
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || bound != d.Bound {
				t.Errorf("%s %d: BENCHMARK.json %+v (bound %v), program %+v", kind, i, g, bound, d)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Fatalf("quartiles = %v %v %v, want 1 2 4", q1, med, q3)
	}
}

func TestJudge(t *testing.T) {
	mk := func(better string, bound float64, vals ...float64) *series {
		s := &series{better: better, bound: bound, bySeed: map[int64][]float64{}}
		for i, v := range vals {
			s.bySeed[int64(i)] = []float64{v}
		}
		return s
	}
	parent := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	faster := make([]float64, len(parent))
	slower := make([]float64, len(parent))
	for i, v := range parent {
		faster[i], slower[i] = v*0.8, v*1.3
	}
	noisy := []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}
	for _, tc := range []struct {
		name     string
		old, cur *series
		want     string
	}{
		{"faster", mk("lower", 0.1, parent...), mk("lower", 0.1, faster...), "better"},
		{"slower", mk("lower", 0.1, parent...), mk("lower", 0.1, slower...), "worse"},
		{"same", mk("lower", 0.1, parent...), mk("lower", 0.1, parent...), "within bound"},
		{"higher is better", mk("higher", 0.1, parent...), mk("higher", 0.1, slower...), "better"},
		{"noisy parent", mk("lower", 0.1, noisy...), mk("lower", 0.1, parent...), "unresolved"},
		{"exact count worse", mk("lower", 0, 7, 7, 7), mk("lower", 0, 8, 8, 8), "worse"},
		{"exact count same", mk("lower", 0, 7, 7, 7), mk("lower", 0, 7, 7, 7), "within bound"},
	} {
		if got, _, _ := judge(tc.old, tc.cur); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(id, parent span.ID, name string, start, dur int) span.Span {
		return span.Span{ID: id, Parent: parent, Name: name,
			Start: t0.Add(time.Duration(start) * time.Millisecond), Dur: time.Duration(dur) * time.Millisecond}
	}
	// Two attempts overlap in [20,60); the search's self time is what
	// neither covers: [0,10) and [90,100).
	spans := []span.Span{
		at(2, 1, "search", 0, 100),
		at(3, 2, "attempt", 10, 50),
		at(4, 2, "attempt", 20, 70),
		at(5, 4, "fm-pass", 30, 10),
		at(1, 0, "bench-job", 0, 100),
		at(6, 99, "attempt", 0, 1), // parent never recorded: an orphan
	}
	tree := newSpanTree()
	tree.add(spans, 0, 1)
	if got := tree.agg("search").self; got != 20*time.Millisecond {
		t.Errorf("search self = %v, want 20ms", got)
	}
	if got := tree.agg("attempt").self; got != 111*time.Millisecond {
		t.Errorf("attempt self = %v, want 111ms", got)
	}
	if tree.orphans != 1 {
		t.Errorf("orphans = %d, want 1", tree.orphans)
	}
}

// TestRepeatable runs every workload's traced run twice at one seed:
// the result quality and the engine's counts must repeat exactly.
func TestRepeatable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs whole partition jobs")
	}
	exact := []string{
		"search.attempts", "search.failed_attempts",
		"kway.carve_tries", "kway.carves", "kway.carve_accept_ratio", "kway.rejects.terminals", "kway.rejects.other",
		"fm.passes", "fm.moves", "replication.replicas", "replication.rollbacks", "replication.replicated_cells",
		"parfm.passes", "parfm.rounds", "parfm.proposals", "parfm.commits", "parfm.stale_ratio",
		"multilevel.vcycles", "multilevel.levels",
		"topology.board_jobs", "topology.failed_attempts", "topology.board_topo_cost",
		"jobstore.appends", "span.dropped",
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			var reps [2]*report
			for i := range reps {
				r, err := run(context.Background(), config{workload: w.Name, seed: 1, seconds: 1, trace: true})
				if err != nil {
					t.Fatal(err)
				}
				if !r.correct() {
					t.Fatalf("run %d failed its checks: %v", i, r.Errors)
				}
				reps[i] = r
			}
			if !reflect.DeepEqual(reps[0].quality, reps[1].quality) {
				t.Errorf("quality differs: %v vs %v", reps[0].quality, reps[1].quality)
			}
			vals := func(r *report) map[string]float64 {
				m := make(map[string]float64)
				for _, v := range r.Metrics {
					m[v.Name] = v.Value
				}
				return m
			}
			a, b := vals(reps[0]), vals(reps[1])
			for _, name := range exact {
				if a[name] != b[name] {
					t.Errorf("%s: %v vs %v", name, a[name], b[name])
				}
			}
		})
	}
}
