// Package fm implements the Fiduccia–Mattheyses min-cut bipartitioning
// heuristic [15] and its extension with functional replication
// (Kužnar et al., DAC'94, Section III.D). A pass repeatedly applies
// the best feasible candidate move — single cell move, functional
// replication with the best output split, or unreplication — locking
// each cell after it participates once, and finally rolls back to the
// best prefix. Passes repeat until a pass yields no improvement.
//
// The gain buckets are the classic intrusive doubly-linked structure:
// every candidate move of every cell owns a fixed slot in a node pool
// sized once per graph, and bucket membership is a head pointer per
// gain value plus prev/next links in the nodes. Removal and reinsertion
// are O(1), the buckets never hold stale entries, and a steady-state
// pass performs no heap allocations (see TestFMPassAllocs).
package fm

import (
	"fmt"
	"math/rand"

	"fpgapart/internal/faultinject"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/parfm"
	"fpgapart/internal/replication"
	"fpgapart/internal/span"
	"fpgapart/internal/trace"
)

// NoReplication disables replication moves when used as the Threshold.
const NoReplication = -1

// Config controls one bipartitioning run.
type Config struct {
	// MinArea/MaxArea bound the active cell area of each block; a move
	// is feasible only if both blocks stay within bounds afterwards.
	MinArea [2]int
	MaxArea [2]int
	// Threshold is the replication potential threshold T (Eq. 6):
	// multi-output cells with ψ ≥ T may replicate. NoReplication (-1)
	// disables replication entirely (plain FM).
	Threshold int
	// RefineWorkers selects the refinement engine. Values >= 2 run the
	// deterministic parallel sub-round engine (package parfm) with
	// that many proposal workers; 0 or 1 run the classic serial engine
	// and are byte-identical to previous releases, traces included.
	// The parallel engine is equally deterministic — the partition is
	// identical for every RefineWorkers value >= 2 and independent of
	// GOMAXPROCS — but its pass schedule differs from the serial
	// engine's, so the two classes reach different (equally valid)
	// partitions from the same seed.
	RefineWorkers int
	// FlowRefine runs the exact max-flow replication pull
	// (replication.OptimalPull, the paper's suggested combination with
	// [4]) in both directions after the FM phases converge.
	FlowRefine bool
	// Seed orders candidate insertion for tie-breaking.
	Seed int64
	// Trace, when non-nil, receives one KindFMPass event per completed
	// pass. The nil path costs a single predicted branch, keeping the
	// steady-state pass allocation-free (see TestFMPassAllocs).
	Trace trace.Sink
	// TraceAttempt labels emitted events with the enclosing solution
	// attempt index; use -1 for standalone runs.
	TraceAttempt int
	// Spans, when armed, times every pass as an "fm-pass" span in the
	// enclosing attempt's trace. The disarmed zero value costs a
	// single predicted branch per pass, keeping the steady-state pass
	// allocation-free (see TestFMPassAllocs). Span clock readings feed
	// only the trace, never search decisions.
	Spans span.Scope
	// Inject, when non-nil, consults the fault plan at every pass
	// boundary (faultinject.SitePass, ordinal = pass sequence within
	// the run, labeled with TraceAttempt). Testing only; nil in
	// production keeps the pass loop allocation-free.
	Inject *faultinject.Plan
}

// Result summarizes a run.
type Result struct {
	Cut    int // final cut size
	Passes int
	Moves  int // applied moves across all passes (before rollbacks)
}

const nilNode = int32(-1)

// node is one candidate move's slot in the gain-bucket pool. A node is
// in a bucket iff bucket >= 0; prev/next link it into that bucket's
// doubly-linked list (prev == nilNode at the head).
type node struct {
	move   replication.Move
	prev   int32
	next   int32
	bucket int32
}

// engine holds the per-run mutable state. The pool/base slot layout and
// bucket head array are graph-derived and reused across runs on the
// same graph (see bind), which is what makes carve retries in the k-way
// partitioner allocation-free after warm-up.
type engine struct {
	st       *replication.State
	cfg      Config
	gainOf   int // bucket offset = max |gain| (st.MaxMoveGain)
	pool     []node
	base     []int32 // per cell: first pool slot; base[n] = len(pool)
	head     []int32 // per bucket: first node, nilNode when empty
	maxPtr   int
	locked   []bool
	order    []hypergraph.CellID
	scratch  []hypergraph.CellID
	best     replication.Checkpoint // per-pass best-prefix snapshot
	replOnly bool
	passSeq  int // pass counter for trace events, reset per Run
}

// Per-cell slot layout (see bind): single-output cells get one slot
// (the single move); multi-output cells additionally get the two
// unreplication merges and one slot per candidate carry mask.
const (
	slotSingle = 0
	slotUnrep0 = 1
	slotUnrep1 = 2
	slotSplit0 = 3
)

// Runner executes FM runs, reusing the engine's pool, bucket and
// scratch buffers across runs. A zero Runner is ready to use; a Runner
// is not safe for concurrent use. The package-level Run is a
// convenience for one-shot use.
type Runner struct {
	e   engine
	par parfm.Runner
}

// Run improves the bipartition state in place and returns the result.
// The state may contain replicated cells from previous runs; they are
// kept and remain subject to unreplication moves.
func Run(st *replication.State, cfg Config) (Result, error) {
	var r Runner
	return r.Run(st, cfg)
}

// bind points the engine at a state, rebuilding the graph-derived slot
// layout only when the graph (or its objective's gain bound) changed
// since the previous run. For the classic objective MaxMoveGain equals
// MaxCellDegree, so flat-path rebinding is unchanged.
func (e *engine) bind(st *replication.State) {
	g := st.Graph()
	if e.st != nil && e.st.Graph() == g && e.gainOf == st.MaxMoveGain() {
		e.st = st
		return
	}
	e.st = st
	n := g.NumCells()
	e.gainOf = st.MaxMoveGain()
	e.head = make([]int32, 2*e.gainOf+1)
	e.base = make([]int32, n+1)
	slots := 0
	for ci := 0; ci < n; ci++ {
		e.base[ci] = int32(slots)
		if len(g.Cells[ci].Outputs) > 1 {
			slots += slotSplit0 + len(st.Splits(hypergraph.CellID(ci)))
		} else {
			slots++
		}
	}
	e.base[n] = int32(slots)
	e.pool = make([]node, slots)
	for ci := 0; ci < n; ci++ {
		c := hypergraph.CellID(ci)
		b := e.base[ci]
		e.pool[b+slotSingle] = node{move: replication.Move{Cell: c, Kind: replication.SingleMove}, bucket: nilNode}
		if len(g.Cells[ci].Outputs) > 1 {
			e.pool[b+slotUnrep0] = node{move: replication.Move{Cell: c, Kind: replication.Unreplicate, To: 0}, bucket: nilNode}
			e.pool[b+slotUnrep1] = node{move: replication.Move{Cell: c, Kind: replication.Unreplicate, To: 1}, bucket: nilNode}
			for i, carry := range st.Splits(c) {
				e.pool[b+slotSplit0+int32(i)] = node{move: replication.Move{Cell: c, Kind: replication.Replicate, Carry: carry}, bucket: nilNode}
			}
		}
	}
	e.locked = make([]bool, n)
	e.order = make([]hypergraph.CellID, n)
}

// Run is the Runner form of the package-level Run, reusing buffers
// from previous runs on the same graph.
func (r *Runner) Run(st *replication.State, cfg Config) (Result, error) {
	if cfg.RefineWorkers >= 2 {
		// Parallel sub-round engine. It shares the FM phase structure
		// and validation; only the pass scheduling differs. FlowRefine
		// stays here so both engines compose with the max-flow pull
		// identically.
		pres, err := r.par.Run(st, parfm.Config{
			MinArea: cfg.MinArea, MaxArea: cfg.MaxArea,
			Threshold: cfg.Threshold, Workers: cfg.RefineWorkers, Seed: cfg.Seed,
			Trace: cfg.Trace, TraceAttempt: cfg.TraceAttempt,
			Spans:  cfg.Spans,
			Inject: cfg.Inject,
		})
		res := Result{Cut: pres.Cut, Passes: pres.Passes, Moves: pres.Moves}
		if err != nil {
			return res, err
		}
		if cfg.FlowRefine {
			if err := flowRefine(st, cfg); err != nil {
				return res, err
			}
			res.Cut = st.CutSize()
		}
		return res, nil
	}
	if cfg.MaxArea[0] <= 0 || cfg.MaxArea[1] <= 0 {
		return Result{}, fmt.Errorf("fm: MaxArea must be positive, got %v", cfg.MaxArea)
	}
	if cfg.MinArea[0] < 0 || cfg.MinArea[1] < 0 {
		return Result{}, fmt.Errorf("fm: MinArea must be non-negative, got %v", cfg.MinArea)
	}
	for b := 0; b < 2; b++ {
		if st.Area(replication.Block(b)) > cfg.MaxArea[b] || st.Area(replication.Block(b)) < cfg.MinArea[b] {
			return Result{}, fmt.Errorf("fm: initial area %d of block %d outside [%d,%d]",
				st.Area(replication.Block(b)), b, cfg.MinArea[b], cfg.MaxArea[b])
		}
	}
	e := &r.e
	e.bind(st)
	e.cfg = cfg
	e.passSeq = 0
	for i := range e.order {
		e.order[i] = hypergraph.CellID(i)
	}
	rnd := rand.New(rand.NewSource(cfg.Seed))
	rnd.Shuffle(len(e.order), func(i, j int) { e.order[i], e.order[j] = e.order[j], e.order[i] })

	// Phase 1: plain FM passes to convergence. Phase 2 (when
	// replication is enabled): passes that also offer replication and
	// unreplication moves, refining the converged min-cut solution —
	// the paper extends the original min-cut algorithm [15] this way,
	// and each pass's best-prefix rollback guarantees phase 2 never
	// worsens the phase-1 cut.
	res := Result{Cut: st.CutSize()}
	// A fault injected at a pass boundary aborts the run with its typed
	// error (panic faults propagate to the search layer's containment);
	// injectErr carries it out of the phase closure.
	var injectErr error
	phase := func(threshold int, replOnly bool) bool {
		e.cfg.Threshold = threshold
		e.replOnly = replOnly
		any := false
		for pass := 0; pass < parfm.MaxPasses; pass++ {
			if cfg.Inject != nil {
				if err := cfg.Inject.At(faultinject.SitePass, cfg.TraceAttempt, res.Passes, cfg.Seed); err != nil {
					injectErr = err
					return any
				}
			}
			run := cfg.Spans.Start("fm-pass", cfg.TraceAttempt)
			improved, moves := e.pass()
			run.End()
			res.Passes++
			res.Moves += moves
			if !improved {
				break
			}
			any = true
		}
		return any
	}
	if cfg.Threshold == NoReplication {
		phase(NoReplication, false)
	} else {
		// Alternate until a full plain+replication round is dry. The
		// replication phase restricts the move universe to replicate/
		// unreplicate so that cut-neutral single moves cannot crowd out
		// replication opportunities; the following plain phase then
		// re-optimizes positions.
		for round := 0; round < parfm.MaxPasses; round++ {
			p := phase(NoReplication, false)
			rr := phase(cfg.Threshold, true)
			if (!p && !rr) || injectErr != nil {
				break
			}
		}
	}
	if injectErr != nil {
		res.Cut = st.CutSize()
		return res, injectErr
	}
	if cfg.FlowRefine {
		if err := flowRefine(st, cfg); err != nil {
			return res, err
		}
	}
	res.Cut = st.CutSize()
	return res, nil
}

// flowRefine applies the exact replication pull in both directions
// until neither improves, rolling back any pull that violates the area
// bounds (OptimalPull only budgets the growing block).
func flowRefine(st *replication.State, cfg Config) error {
	for {
		improved := false
		for b := replication.Block(0); b < 2; b++ {
			to := b.Other()
			budget := cfg.MaxArea[to] - st.Area(to)
			if budget <= 0 {
				continue
			}
			tok := st.Mark()
			before := st.Objective()
			res, err := replication.OptimalPull(st, b, replication.PullOptions{
				Radius: 4, MaxExtraArea: budget,
			})
			if err != nil {
				return err
			}
			if !res.Applied {
				continue
			}
			if st.Area(b) < cfg.MinArea[b] || st.Objective() >= before {
				if err := st.Undo(tok); err != nil {
					return err
				}
				continue
			}
			improved = true
		}
		if !improved {
			return nil
		}
	}
}

// insert links the node at slot into the bucket for gain, at the head
// (LIFO — among equal gains the most recently refreshed candidate is
// preferred, matching classic FM tie-breaking). The gain must be within
// the ±maxDeg bound; a violation is a gain-maintenance bug, not a
// clampable condition.
func (e *engine) insert(slot int32, gain int) {
	idx := gain + e.gainOf
	if idx < 0 || idx >= len(e.head) {
		panic(fmt.Sprintf("fm: gain %d of %v outside bound ±%d", gain, e.pool[slot].move, e.gainOf))
	}
	nd := &e.pool[slot]
	nd.bucket = int32(idx)
	nd.prev = nilNode
	nd.next = e.head[idx]
	if nd.next != nilNode {
		e.pool[nd.next].prev = slot
	}
	e.head[idx] = slot
	if idx > e.maxPtr {
		e.maxPtr = idx
	}
}

// unlink removes the node at slot from its bucket. No-op when the node
// is not in one.
func (e *engine) unlink(slot int32) {
	nd := &e.pool[slot]
	if nd.bucket == nilNode {
		return
	}
	if nd.prev != nilNode {
		e.pool[nd.prev].next = nd.next
	} else {
		e.head[nd.bucket] = nd.next
	}
	if nd.next != nilNode {
		e.pool[nd.next].prev = nd.prev
	}
	nd.bucket = nilNode
}

// removeAll unlinks every candidate node of the cell.
func (e *engine) removeAll(c hypergraph.CellID) {
	for s := e.base[c]; s < e.base[c+1]; s++ {
		e.unlink(s)
	}
}

// push (re)inserts the cell's currently valid candidate moves with
// fresh gains, removing any previous insertions first. Single-move
// gains come from the state's incrementally maintained values;
// replication and unreplication gains are evaluated semantically.
func (e *engine) push(c hypergraph.CellID) {
	e.removeAll(c)
	b := e.base[c]
	if e.st.IsReplicated(c) {
		e.insert(b+slotUnrep0, e.st.MustGain(e.pool[b+slotUnrep0].move))
		e.insert(b+slotUnrep1, e.st.MustGain(e.pool[b+slotUnrep1].move))
		return
	}
	if !e.replOnly {
		e.insert(b+slotSingle, e.st.SingleGain(c))
	}
	if e.cfg.Threshold != NoReplication && e.st.CanReplicate(c, e.cfg.Threshold) {
		for s := b + slotSplit0; s < e.base[c+1]; s++ {
			e.insert(s, e.st.MustGain(e.pool[s].move))
		}
	}
}

// feasible checks the area bounds after a prospective move.
func (e *engine) feasible(m replication.Move) bool {
	d0, d1, err := e.st.AreaDelta(m)
	if err != nil {
		return false
	}
	a0 := e.st.Area(0) + d0
	a1 := e.st.Area(1) + d1
	return a0 >= e.cfg.MinArea[0] && a0 <= e.cfg.MaxArea[0] &&
		a1 >= e.cfg.MinArea[1] && a1 <= e.cfg.MaxArea[1]
}

// pass runs one FM pass and reports whether the cut improved, plus the
// number of applied moves.
func (e *engine) pass() (bool, int) {
	for i := range e.head {
		e.head[i] = nilNode
	}
	for i := range e.pool {
		e.pool[i].bucket = nilNode
	}
	e.maxPtr = 0
	for i := range e.locked {
		e.locked[i] = false
	}
	for _, c := range e.order {
		e.push(c)
	}
	// The pass minimizes the state's objective: plain cut size, or the
	// weighted topology cost when a net weight table is installed
	// (identical values on unweighted states, so the flat path is
	// byte-for-byte the classic engine).
	startCut := e.st.Objective()
	bestCut := startCut
	// Best-prefix tracking via full-state snapshots: restoring one is
	// O(cells + nets) flat copies, against per-move undo sweeps over
	// every rolled-back move's neighborhood.
	e.st.SaveCheckpoint(&e.best)
	moves := 0
	for {
		mv, ok := e.pop()
		if !ok {
			break
		}
		if _, err := e.st.Apply(mv); err != nil {
			// Buckets hold no stale entries — every node is refreshed
			// when its cell's neighborhood changes — so an apply error
			// here is a bug.
			panic(fmt.Sprintf("fm: applying %v: %v", mv, err))
		}
		moves++
		e.locked[mv.Cell] = true
		e.removeAll(mv.Cell)
		// For single moves the commit delta sweep already visited the
		// exact touched neighborhood; reuse it instead of re-walking
		// the adjacency. Replication moves can touch cells on nets
		// whose counts did not change, so they take the full scan.
		var touched []hypergraph.CellID
		if mv.Kind == replication.SingleMove {
			touched = e.st.LastTouched()
		} else {
			e.scratch = e.st.TouchedCells(mv.Cell, e.scratch)
			touched = e.scratch
		}
		for _, t := range touched {
			if !e.locked[t] {
				e.push(t)
			}
		}
		if cut := e.st.Objective(); cut < bestCut {
			bestCut = cut
			e.st.SaveCheckpoint(&e.best)
		}
	}
	if err := e.st.RestoreCheckpoint(&e.best); err != nil {
		panic(fmt.Sprintf("fm: rollback: %v", err))
	}
	e.passSeq++
	if e.cfg.Trace != nil {
		e.cfg.Trace.Event(trace.Event{
			Kind:    trace.KindFMPass,
			Attempt: e.cfg.TraceAttempt,
			Pass:    e.passSeq,
			Moves:   moves,
			Cut:     bestCut,
		})
	}
	return bestCut < startCut, moves
}

// pop returns the highest-gain feasible candidate, unlinking it.
// Infeasible candidates encountered on the way are parked (unlinked but
// not discarded permanently): they return to the buckets when their
// cell's neighborhood is next refreshed.
func (e *engine) pop() (replication.Move, bool) {
	for e.maxPtr >= 0 {
		n := e.head[e.maxPtr]
		if n == nilNode {
			e.maxPtr--
			continue
		}
		e.unlink(n)
		if !e.feasible(e.pool[n].move) {
			continue
		}
		return e.pool[n].move, true
	}
	return replication.Move{}, false
}
