// Package core is the public face of the library: multi-way netlist
// partitioning into heterogeneous FPGAs with minimization of total
// device cost and interconnect (Kužnar, Brglez, Zajc — DAC'94). It
// wires the substrates together: gate-level netlists (netlist) are
// technology-mapped into XC3000-style CLBs (techmap), modeled as a
// hypergraph with per-output adjacency vectors (hypergraph), and
// partitioned over a device library (library) by the cost-driven
// recursive engine (kway) whose bipartitioner (fm) performs min-cut
// refinement with functional replication (replication).
//
// Quick start:
//
//	g := ...                       // *hypergraph.Graph, e.g. bench.Suite()[0].MustBuild()
//	res, err := core.Partition(g, core.Options{})
//	fmt.Println(res.Summary)       // k, device cost (Eq. 1), IOB utilization (Eq. 2)
package core

import (
	"context"
	"time"

	"fpgapart/internal/faultinject"
	"fpgapart/internal/fm"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/kway"
	"fpgapart/internal/library"
	"fpgapart/internal/netlist"
	"fpgapart/internal/replication"
	"fpgapart/internal/span"
	"fpgapart/internal/techmap"
	"fpgapart/internal/topology"
	"fpgapart/internal/trace"
)

// NoReplication disables functional replication when used as the
// Threshold, reproducing the DAC'93 baseline partitioner ([3]).
const NoReplication = fm.NoReplication

// Options configures Partition and MapAndPartition.
type Options struct {
	// Library is the heterogeneous FPGA device library (Table I).
	// Defaults to library.XC3000().
	Library library.Library
	// Threshold is the replication potential threshold T (Eq. 6): a
	// multi-output cell may replicate when ψ ≥ T. Use NoReplication to
	// disable replication. Default 1.
	Threshold int
	// Solutions is how many feasible k-way solutions the randomized
	// search generates before keeping the best (default 50, as in the
	// paper's experiments).
	Solutions int
	// Refine runs the pairwise k-way refinement sweep on the winning
	// solution (extension; see kway.Refine).
	Refine bool
	// Multilevel routes large carve subproblems through the multilevel
	// V-cycle (coarsen → partition → uncoarsen+refine; see
	// internal/multilevel and kway.Options.Multilevel). Off by
	// default; the flat path is byte-identical to the classic engine.
	Multilevel bool
	// Workers bounds the search worker pool (0 = one per CPU). Fixed-
	// seed results are identical regardless of the value.
	Workers int
	// RefineWorkers selects the FM refinement engine inside every
	// attempt: >= 2 uses the deterministic parallel sub-round engine
	// (package parfm) with that many proposal workers, 0 or 1 the
	// classic serial engine (byte-identical to previous releases).
	// Fixed-seed results are identical for any value >= 2.
	RefineWorkers int
	// Verify runs the partition verifier in-loop on every accepted
	// carve and every feasible solution (see kway.Options.Verify).
	Verify bool
	// Timeout bounds the search wall-clock time (0 = unlimited). The
	// deadline is observed only at deterministic checkpoints (carve
	// boundaries), so a search that finishes within the budget is
	// bit-identical to an unbudgeted run; a search cut short returns
	// the best solution of the completed attempt prefix with
	// Result.Stopped set, or an error wrapping *search.ErrBudget when
	// no feasible solution was found in time.
	Timeout time.Duration
	// MaxStale stops the search early after this many consecutive
	// non-improving feasible solutions (0 = run all Solutions).
	MaxStale int
	// Trace, when non-nil, receives structured engine events (see
	// internal/trace): FM passes, carve attempts and folded solutions.
	// Must be safe for concurrent use; nil costs nothing.
	Trace trace.Sink
	// Inject, when non-nil, arms deterministic fault injection at the
	// engine checkpoints (see internal/faultinject). Panics injected
	// into workers are contained per attempt and surface as
	// Result.Degraded. Testing only; leave nil in production.
	Inject *faultinject.Plan
	// Now supplies the wall clock for phase-timing trace events (nil
	// selects time.Now). Clock readings feed only Trace, never search
	// decisions, so fixed-seed results are byte-identical with or
	// without telemetry.
	Now func() time.Time
	// Board, when non-nil, switches the search to the hop-weighted
	// interconnect objective over the board's device-slot topology
	// (internal/topology): part i occupies board slot i, each cut net
	// costs its Steiner span over the slots it touches, and solutions
	// exceeding the slot count or any link's routing capacity are
	// rejected (verify.Routing). Result.Summary.TopoCost/HasTopo carry
	// the winning score. Nil keeps the paper's flat terminal-cut
	// objective, byte-identical to board-free releases.
	Board *topology.Board
	// Checkpoint, when non-nil, receives a serializable snapshot of the
	// search reduction every CheckpointEvery folded attempts (see
	// kway.Options.Checkpoint). Snapshots arrive in strict attempt
	// order from a single goroutine; emission never perturbs search
	// decisions.
	Checkpoint func(kway.SearchCheckpoint)
	// CheckpointEvery is the checkpoint cadence in folded attempts
	// (default 1). Ignored when Checkpoint is nil.
	CheckpointEvery int
	// Resume, when non-nil, restarts the search from a persisted
	// checkpoint instead of attempt 0; the resumed run folds to the
	// byte-identical result of the uninterrupted run (see
	// kway.Options.Resume).
	Resume *kway.SearchCheckpoint
	// Spans, when armed, records the run as a causal span tree under
	// the caller's scope (see internal/span and kway.Options.Spans).
	// Spans only read the clock; the disarmed zero value is inert and
	// fixed-seed results are byte-identical either way.
	Spans span.Scope
	Seed  int64
}

func (o Options) fill() Options {
	if len(o.Library.Devices) == 0 {
		o.Library = library.XC3000()
	}
	if o.Threshold == 0 {
		o.Threshold = 1
	}
	return o
}

// Result is the outcome of a k-way partition: the materialized part
// subcircuits with their devices, and the Eq. 1 / Eq. 2 summary.
type Result = kway.Result

// Partition finds a feasible k-way partition of the mapped circuit
// minimizing total device cost (Eq. 1) with average IOB utilization
// (Eq. 2) as tie-breaker.
func Partition(g *hypergraph.Graph, opts Options) (Result, error) {
	return PartitionContext(context.Background(), g, opts)
}

// PartitionContext is Partition under an external budget: ctx (and
// Options.Timeout, when set) cancels the search at its deterministic
// checkpoints. See kway.PartitionContext for the truncation contract.
func PartitionContext(ctx context.Context, g *hypergraph.Graph, opts Options) (Result, error) {
	opts = opts.fill()
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	kopts := kway.Options{
		Library:         opts.Library,
		Threshold:       opts.Threshold,
		Solutions:       opts.Solutions,
		Multilevel:      opts.Multilevel,
		Workers:         opts.Workers,
		RefineWorkers:   opts.RefineWorkers,
		Verify:          opts.Verify,
		MaxStale:        opts.MaxStale,
		Trace:           opts.Trace,
		Inject:          opts.Inject,
		Now:             opts.Now,
		Board:           opts.Board,
		Checkpoint:      opts.Checkpoint,
		CheckpointEvery: opts.CheckpointEvery,
		Resume:          opts.Resume,
		Spans:           opts.Spans,
		Seed:            opts.Seed,
	}
	res, err := kway.PartitionContext(ctx, g, kopts)
	if err != nil {
		return res, err
	}
	if opts.Refine {
		if _, err := kway.Refine(g, &res, kopts); err != nil {
			return res, err
		}
	}
	return res, nil
}

// MapAndPartition technology-maps a gate-level netlist into XC3000
// CLBs, then partitions the result.
func MapAndPartition(n *netlist.Netlist, opts Options) (*techmap.Mapped, Result, error) {
	opts = opts.fill()
	m, err := techmap.Map(n, techmap.Options{Seed: opts.Seed})
	if err != nil {
		return nil, Result{}, err
	}
	res, err := Partition(m.Graph, opts)
	if err != nil {
		return m, Result{}, err
	}
	return m, res, nil
}

// BipartitionOptions configures MinCutBipartition.
type BipartitionOptions struct {
	// Threshold is the replication threshold T (NoReplication disables;
	// the paper's first experiment uses T = 0 for maximum replication).
	Threshold int
	// Balance is the allowed deviation from an equal split (default
	// 0.05, i.e. each block holds 45–55% of the area, with 10% headroom
	// for replication growth).
	Balance float64
	// Starts is the number of random initial partitions (default 1).
	Starts int
	// RefineWorkers selects the FM engine (see Options.RefineWorkers).
	RefineWorkers int
	Seed          int64
}

// MinCutBipartition reproduces the paper's first experiment on one
// circuit: bipartition into two (nearly) equal blocks minimizing the
// cut, optionally with functional replication. The returned state
// exposes the assignment, replication set and cut.
func MinCutBipartition(g *hypergraph.Graph, opts BipartitionOptions) (*replication.State, fm.Result, error) {
	if opts.Balance == 0 {
		opts.Balance = 0.05
	}
	minA, maxA := fm.Balance(g.TotalArea(), opts.Balance)
	maxA = [2]int{maxA[0] * 11 / 10, maxA[1] * 11 / 10}
	return fm.Bipartition(g, fm.Options{
		Config: fm.Config{
			MinArea: minA, MaxArea: maxA,
			Threshold: opts.Threshold, Seed: opts.Seed,
			RefineWorkers: opts.RefineWorkers,
		},
		Starts: opts.Starts,
	})
}
