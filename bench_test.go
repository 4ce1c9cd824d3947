// Package fpgapart's benchmarks regenerate every table and figure of
// the paper's evaluation at reduced scale (the shape-preserving 1/8
// circuits), plus engine micro-benchmarks and ablations. The full-size
// tables come from `go run ./cmd/benchtables`; each benchmark here
// prints the same rows via the shared drivers in internal/expt.
package fpgapart

import (
	"fmt"
	"testing"

	"fpgapart/internal/bench"
	"fpgapart/internal/core"
	"fpgapart/internal/expt"
	"fpgapart/internal/fm"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/library"
	"fpgapart/internal/replication"
)

// benchCfg is the reduced-scale configuration all table benchmarks
// share: 1/8-size circuits, few runs, deterministic seed.
func benchCfg() expt.Config {
	return expt.Config{Scale: 8, Runs: 3, Solutions: 3, Seed: 1}
}

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := expt.TableI(library.XC3000()).String(); len(s) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := expt.TableII(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, _, err := expt.Figure3(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIII regenerates the min-cut experiment (FM vs FM with
// functional replication) and reports the average cut reduction as a
// custom metric.
func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := expt.TableIII(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		red := 0.0
		for _, r := range rows {
			red += r.AvgRed / float64(len(rows))
		}
		b.ReportMetric(red, "avg-cut-red-%")
	}
}

func benchKwayRows(b *testing.B) []expt.KwayRow {
	b.Helper()
	rows, err := expt.RunKway(benchCfg())
	if err != nil {
		b.Fatal(err)
	}
	return rows
}

func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := benchKwayRows(b)
		if s := expt.TableIV(benchCfg(), rows).String(); len(s) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := benchKwayRows(b)
		if s := expt.TableV(rows).String(); len(s) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableVI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := benchKwayRows(b)
		// Report the average T=1 cost reduction against the baseline.
		red, n := 0.0, 0
		for _, r := range rows {
			if r.Baseline.Err == nil && r.ByT[1].Err == nil && r.Baseline.Cost > 0 {
				red += 100 * (r.Baseline.Cost - r.ByT[1].Cost) / r.Baseline.Cost
				n++
			}
		}
		if n > 0 {
			b.ReportMetric(red/float64(n), "avg-cost-red-%")
		}
		if s := expt.TableVI(rows).String(); len(s) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableVII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := benchKwayRows(b)
		iob, n := 0.0, 0
		for _, r := range rows {
			if c := r.ByT[1]; c.Err == nil {
				iob += c.IOBUtil
				n++
			}
		}
		if n > 0 {
			b.ReportMetric(iob/float64(n), "avg-iob-util-%")
		}
		if s := expt.TableVII(rows).String(); len(s) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- engine micro-benchmarks and ablations ---------------------------

func benchGraph(b *testing.B, name string, scale int) *hypergraph.Graph {
	b.Helper()
	c, ok := bench.ByName(name)
	if !ok {
		b.Fatalf("unknown circuit %s", name)
	}
	g, err := c.Small(scale).Build()
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// benchSeed cycles a fixed set of eight seeds, so the work per op does
// not drift with b.N: iteration i always runs the same instance.
func benchSeed(i int) int64 { return int64(i%8) + 1 }

// BenchmarkFMPass measures raw plain-FM bipartitioning throughput and
// reports the mean moves per run.
func BenchmarkFMPass(b *testing.B) {
	g := benchGraph(b, "s13207", 2)
	minA, maxA := fm.Balance(g.TotalArea(), 0.05)
	b.ResetTimer()
	moves := 0
	for i := 0; i < b.N; i++ {
		seed := benchSeed(i)
		st, err := replication.NewState(g, fm.RandomAssign(g, seed))
		if err != nil {
			b.Fatal(err)
		}
		res, err := fm.Run(st, fm.Config{MinArea: minA, MaxArea: maxA, Threshold: fm.NoReplication, Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		moves += res.Moves
	}
	b.ReportMetric(float64(moves)/float64(b.N), "moves/op")
}

// BenchmarkReplicationGain measures the per-move gain evaluation the
// engine's inner loop depends on.
func BenchmarkReplicationGain(b *testing.B) {
	g := benchGraph(b, "s9234", 2)
	st, err := replication.NewState(g, fm.RandomAssign(g, 1))
	if err != nil {
		b.Fatal(err)
	}
	moves := make([]replication.Move, 0, g.NumCells())
	for ci := 0; ci < g.NumCells(); ci++ {
		c := hypergraph.CellID(ci)
		if splits := st.Splits(c); len(splits) > 0 {
			moves = append(moves, replication.Move{Cell: c, Kind: replication.Replicate, Carry: splits[0]})
		} else {
			moves = append(moves, replication.Move{Cell: c, Kind: replication.SingleMove})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Gain(moves[i%len(moves)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationInitialPartition compares cluster-grown against
// random initial assignments: the design choice behind the k-way
// carve (DESIGN.md §5).
func BenchmarkAblationInitialPartition(b *testing.B) {
	g := benchGraph(b, "s15850", 4)
	minA, maxA := fm.Balance(g.TotalArea(), 0.05)
	run := func(b *testing.B, assignFor func(i int) []replication.Block) {
		cuts := 0
		for i := 0; i < b.N; i++ {
			st, err := replication.NewState(g, assignFor(i))
			if err != nil {
				b.Fatal(err)
			}
			res, err := fm.Run(st, fm.Config{MinArea: minA, MaxArea: maxA, Threshold: fm.NoReplication, Seed: int64(i)})
			if err != nil {
				b.Fatal(err)
			}
			cuts += res.Cut
		}
		b.ReportMetric(float64(cuts)/float64(b.N), "final-cut")
	}
	b.Run("random", func(b *testing.B) {
		run(b, func(i int) []replication.Block { return fm.RandomAssign(g, int64(i)) })
	})
	b.Run("cluster", func(b *testing.B) {
		run(b, func(i int) []replication.Block { return fm.ClusterAssign(g, int64(i), g.TotalArea()/2) })
	})
}

// BenchmarkAblationThreshold sweeps the replication threshold on one
// circuit, reporting the final cut per setting (Table IV's knob).
func BenchmarkAblationThreshold(b *testing.B) {
	g := benchGraph(b, "s9234", 2)
	minA, maxA := fm.Balance(g.TotalArea(), 0.05)
	maxA = [2]int{maxA[0] * 11 / 10, maxA[1] * 11 / 10}
	for _, T := range []int{fm.NoReplication, 0, 1, 3} {
		name := fmt.Sprintf("T=%d", T)
		if T == fm.NoReplication {
			name = "T=off"
		}
		b.Run(name, func(b *testing.B) {
			cuts := 0
			for i := 0; i < b.N; i++ {
				st, err := replication.NewState(g, fm.RandomAssign(g, int64(i)))
				if err != nil {
					b.Fatal(err)
				}
				res, err := fm.Run(st, fm.Config{MinArea: minA, MaxArea: maxA, Threshold: T, Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				cuts += res.Cut
			}
			b.ReportMetric(float64(cuts)/float64(b.N), "final-cut")
		})
	}
}

// BenchmarkKwayPartition measures one full cost-driven k-way search
// and reports the mean device cost.
func BenchmarkKwayPartition(b *testing.B) {
	g := benchGraph(b, "s13207", 2)
	b.ResetTimer()
	cost := 0.0
	for i := 0; i < b.N; i++ {
		res, err := core.Partition(g, core.Options{Solutions: 3, Seed: benchSeed(i)})
		if err != nil {
			b.Fatal(err)
		}
		cost += res.Summary.DeviceCost()
	}
	b.ReportMetric(cost/float64(b.N), "cost")
}

// BenchmarkAblationFlowRefine compares FM+functional-replication
// against the same run followed by the exact max-flow replication pull
// (the paper's suggested combination with [4]).
func BenchmarkAblationFlowRefine(b *testing.B) {
	g := benchGraph(b, "s15850", 2)
	minA, maxA := fm.Balance(g.TotalArea(), 0.05)
	maxA = [2]int{maxA[0] * 11 / 10, maxA[1] * 11 / 10}
	for _, flow := range []bool{false, true} {
		name := "fm+fr"
		if flow {
			name = "fm+fr+flow"
		}
		b.Run(name, func(b *testing.B) {
			cuts := 0
			for i := 0; i < b.N; i++ {
				st, err := replication.NewState(g, fm.RandomAssign(g, int64(i)))
				if err != nil {
					b.Fatal(err)
				}
				res, err := fm.Run(st, fm.Config{
					MinArea: minA, MaxArea: maxA, Threshold: 0,
					FlowRefine: flow, Seed: int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				cuts += res.Cut
			}
			b.ReportMetric(float64(cuts)/float64(b.N), "final-cut")
		})
	}
}

// BenchmarkAblationPairRefine measures the pairwise k-way refinement
// sweep's effect on Eq. 2 (average IOB utilization).
func BenchmarkAblationPairRefine(b *testing.B) {
	g := benchGraph(b, "s38584", 3)
	for _, refine := range []bool{false, true} {
		name := "search-only"
		if refine {
			name = "search+refine"
		}
		b.Run(name, func(b *testing.B) {
			util := 0.0
			for i := 0; i < b.N; i++ {
				res, err := core.Partition(g, core.Options{Solutions: 3, Seed: int64(i), Refine: refine})
				if err != nil {
					b.Fatal(err)
				}
				util += 100 * res.Summary.AvgIOBUtil()
			}
			b.ReportMetric(util/float64(b.N), "avg-iob-util-%")
		})
	}
}

// BenchmarkKwayVerifyOverhead measures the cost of in-loop
// verification (kway.Options.Verify / kpart -verify): every accepted
// carve is re-checked with replication.State invariants plus
// verify.Split, and every assembled solution with verify.Partition.
// The checks are linear in pins, so the overhead stays small against
// the FM search itself — expected below ~10% at this reduced scale.
func BenchmarkKwayVerifyOverhead(b *testing.B) {
	g := benchGraph(b, "s13207", 2)
	for _, on := range []bool{false, true} {
		name := "verify-off"
		if on {
			name = "verify-on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Partition(g, core.Options{Solutions: 3, Seed: int64(i), Verify: on}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
