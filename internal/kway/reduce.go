package kway

import (
	"context"
	"errors"
	"fmt"

	"fpgapart/internal/metrics"
	"fpgapart/internal/search"
	"fpgapart/internal/span"
	"fpgapart/internal/trace"
)

// SearchCheckpoint is a serializable snapshot of the k-way search's
// index-ordered reduction: the fold frontier, the incumbent best
// attempt index, and the fold-side aggregates. It deliberately stores
// no solution content — attempt i derives all randomness from
// Seed + i*SeedStride, so the incumbent is reconstructed by replaying
// its attempt, and a search resumed from a checkpoint folds to the
// byte-identical result of the uninterrupted run.
type SearchCheckpoint struct {
	// Seed and Solutions identify the search the checkpoint belongs
	// to; Resume rejects a mismatch.
	Seed      int64 `json:"seed"`
	Solutions int   `json:"solutions"`
	// Folded is the number of attempts the reduction covers;
	// dispatch resumes at this index.
	Folded int `json:"folded"`
	// BestAttempt is the attempt index of the incumbent best solution
	// (-1 while no attempt has been accepted).
	BestAttempt int `json:"best_attempt"`
	// Stale is the MaxStale counter (consecutive non-improving
	// accepted solutions).
	Stale int `json:"stale"`
	// Accepted/Failed/Panicked/Improved mirror search.Stats.
	Accepted int `json:"accepted"`
	Failed   int `json:"failed"`
	Panicked int `json:"panicked"`
	Improved int `json:"improved"`
	// CostMin/CostMax/CostSum carry the device-cost spread across the
	// accepted solutions (float64 JSON round-trips exactly, so the
	// resumed CostMean is byte-identical).
	CostMin float64 `json:"cost_min"`
	CostMax float64 `json:"cost_max"`
	CostSum float64 `json:"cost_sum"`
	// PanickedSeeds and FirstError preserve the diagnostic state of
	// the folded prefix (FirstError as a message string; a resumed
	// InfeasibleError wraps a reconstructed error with the same text).
	PanickedSeeds []int64 `json:"panicked_seeds,omitempty"`
	FirstError    string  `json:"first_error,omitempty"`
}

// Fold is the search reduction's account of every attempt it folded,
// reported alongside the best solution.
type Fold struct {
	// Feasible counts complete feasible solutions generated; Failed
	// counts abandoned attempts.
	Feasible, Failed int
	// CostMin/CostMax/CostMean summarize the device cost across the
	// feasible solutions the randomized search generated — the spread
	// the best-of-N selection exploits.
	CostMin, CostMax, CostMean float64
	// Stopped records why the search ended before folding all Solutions
	// attempts: "" (ran to completion), StoppedStale (MaxStale
	// consecutive non-improving solutions) or StoppedBudget (context
	// cancellation/deadline with a feasible incumbent in hand).
	Stopped string
	// Degraded reports that at least one solution attempt died to a
	// contained panic: the result is still the deterministic best of
	// the surviving attempts, but the panicked indices contributed
	// nothing. Panicked counts them and PanickedSeeds records the seeds
	// that died, for offline reproduction of the crash.
	Degraded      bool
	Panicked      int
	PanickedSeeds []int64
	// Resumed reports that the search restarted from a checkpoint
	// (Options.Resume); ResumedFrom is the attempt index it continued
	// from (meaningful only when Resumed).
	Resumed     bool
	ResumedFrom int
}

// Attempts is what a search reduction needs from its caller; Search
// owns everything else.
type Attempts[T any] struct {
	// New returns one search worker's attempt function. It is called
	// once per worker, so the closure may own reusable scratch.
	New func() search.AttemptFunc[T]
	// Replay re-runs the incumbent attempt of a resumed search. Its
	// context carries the "resume" span's scope.
	Replay search.AttemptFunc[T]
	// Fatal classifies attempt errors that abort the search instead of
	// folding as failed attempts.
	Fatal func(error) bool
	// Score places a solution under the objective; the fold ranks
	// solutions by metrics.Score.Better and reports Cost, K and Topo.
	Score func(T) metrics.Score
}

// Search is the k-way search reduction shared by the local engine and
// the coordinator: it runs opts.Solutions attempts (attempt i with
// seed opts.Seed + i*SeedStride) on opts.Workers search workers, folds
// them in index order under metrics.Score.Better, and returns the best
// solution with the Fold aggregates. Because the shape, the comparator
// and the bookkeeping live here once, a checkpoint written by either
// caller resumes under the other.
//
// Search validates opts, emits the KindSolution, KindResume and
// KindCheckpoint trace events, honours opts.Resume (the checkpoint's
// incumbent is rebuilt through a.Replay under a "resume" span),
// delivers opts.Checkpoint snapshots and times the search phase (the
// "search" span and, with a sink, its KindPhase event).
// Options fields that shape single attempts (Library, Threshold,
// Board, ...) are the caller's business. The error contract is
// PartitionContext's: a fatal attempt surfaces its own error, a budget
// with a feasible incumbent sets Fold.Stopped, and no feasible
// solution is an *InfeasibleError (wrapping *search.ErrBudget when the
// budget cut the search).
func Search[T any](ctx context.Context, opts Options, a Attempts[T]) (T, Fold, error) {
	var (
		zero     T
		fold     Fold
		costSum  float64
		firstErr error
	)
	opts, err := opts.withDefaults()
	if err != nil {
		return zero, fold, err
	}
	// The aggregates are maintained inside Observe — single-threaded,
	// index-ordered — so the float accumulation order is fixed too.
	drv := search.Driver[T]{
		NewAttempt: a.New,
		Better:     func(x, y T) bool { return a.Score(x).Better(a.Score(y)) },
		Fatal:      a.Fatal,
		Observe: func(attempt int, sol T, err error, improved bool) {
			if err != nil {
				fold.Failed++
				if firstErr == nil {
					firstErr = err
				}
				var perr *search.PanicError
				panicked := errors.As(err, &perr)
				if panicked {
					fold.PanickedSeeds = append(fold.PanickedSeeds, perr.Seed)
				}
				opts.Hook.Event(trace.Event{Kind: trace.KindSolution, Attempt: attempt, Reason: err.Error(), Panic: panicked})
				return
			}
			fold.Feasible++
			sc := a.Score(sol)
			if fold.Feasible == 1 || sc.Cost < fold.CostMin {
				fold.CostMin = sc.Cost
			}
			if sc.Cost > fold.CostMax {
				fold.CostMax = sc.Cost
			}
			costSum += sc.Cost
			opts.Hook.Event(trace.Event{
				Kind: trace.KindSolution, Attempt: attempt,
				Feasible: true, Cost: sc.Cost, Parts: sc.K, Improved: improved,
				Topo: sc.Topo, HasTopo: sc.HasTopo,
			})
		},
	}
	if cp := opts.Resume; cp != nil {
		if cp.Seed != opts.Seed || cp.Solutions != opts.Solutions {
			return zero, fold, fmt.Errorf("kway: checkpoint is for seed %d / %d solutions, options say seed %d / %d solutions", cp.Seed, cp.Solutions, opts.Seed, opts.Solutions)
		}
		if cp.Folded < 0 || cp.Folded > opts.Solutions || cp.BestAttempt >= cp.Folded {
			return zero, fold, fmt.Errorf("kway: corrupt checkpoint: folded %d, best attempt %d, %d solutions", cp.Folded, cp.BestAttempt, opts.Solutions)
		}
		fold.Feasible, fold.Failed = cp.Accepted, cp.Failed
		fold.CostMin, fold.CostMax, costSum = cp.CostMin, cp.CostMax, cp.CostSum
		if cp.FirstError != "" {
			firstErr = errors.New(cp.FirstError)
		}
		fold.PanickedSeeds = append(fold.PanickedSeeds, cp.PanickedSeeds...)
		rs := &search.ResumeState[T]{
			Folded: cp.Folded, BestAttempt: cp.BestAttempt, Stale: cp.Stale,
			Stats: search.Stats{
				Folded: cp.Folded, Accepted: cp.Accepted, Failed: cp.Failed,
				Panicked: cp.Panicked, Improved: cp.Improved,
			},
		}
		if cp.BestAttempt >= 0 {
			// Reconstruct the incumbent by replaying its attempt:
			// attempt i derives all randomness from Seed + i*SeedStride,
			// so the replay is byte-identical to the solution the
			// interrupted run held. The replay's spans land under a
			// "resume" span in the same trace as the original run (the
			// caller derives the TraceID from the checkpoint identity),
			// so a crash-recovered job reads as one timeline.
			rctx := ctx
			resumeSpan := opts.Hook.At(cp.BestAttempt).Start("resume")
			if opts.Hook.Spans.Enabled() {
				resumeSpan.Detail(fmt.Sprintf("folded=%d best_attempt=%d", cp.Folded, cp.BestAttempt))
				rctx = span.NewContext(ctx, resumeSpan.Scope())
			}
			sol, rerr := a.Replay(rctx, cp.BestAttempt, opts.Seed+int64(cp.BestAttempt)*SeedStride)
			resumeSpan.End()
			if rerr != nil {
				return zero, fold, fmt.Errorf("kway: checkpoint replay of attempt %d failed: %w", cp.BestAttempt, rerr)
			}
			rs.Best, rs.Found = sol, true
		}
		drv.Resume = rs
		opts.Hook.Event(trace.Event{Kind: trace.KindResume, Attempt: cp.Folded, Folded: cp.Folded, BestAttempt: cp.BestAttempt})
	}
	// The checkpoint hook runs inside the single-threaded reducer,
	// immediately after Observe for the same attempt, so the aggregates
	// it captures are exactly current at each snapshot.
	var sCheckpoint func(search.Progress)
	if opts.Checkpoint != nil {
		every := opts.CheckpointEvery
		if every == 0 {
			every = 1
		}
		sCheckpoint = func(p search.Progress) {
			if p.Folded%every != 0 && p.Folded != opts.Solutions {
				return
			}
			cp := SearchCheckpoint{
				Seed: opts.Seed, Solutions: opts.Solutions,
				Folded: p.Folded, BestAttempt: p.BestAttempt, Stale: p.Stale,
				Accepted: p.Stats.Accepted, Failed: p.Stats.Failed,
				Panicked: p.Stats.Panicked, Improved: p.Stats.Improved,
				CostMin: fold.CostMin, CostMax: fold.CostMax, CostSum: costSum,
			}
			if firstErr != nil {
				cp.FirstError = firstErr.Error()
			}
			if len(fold.PanickedSeeds) > 0 {
				cp.PanickedSeeds = append([]int64(nil), fold.PanickedSeeds...)
			}
			opts.Hook.Event(trace.Event{Kind: trace.KindCheckpoint, Attempt: p.Folded - 1, Folded: p.Folded, BestAttempt: p.BestAttempt})
			opts.Checkpoint(cp)
		}
	}
	searchPhase := opts.Hook.At(-1).Phase(trace.PhaseSearch)
	out, serr := search.Run(ctx, search.Options{
		Attempts:   opts.Solutions,
		Workers:    opts.Workers,
		Seed:       opts.Seed,
		SeedStride: SeedStride,
		MaxStale:   opts.MaxStale,
		Inject:     opts.Inject,
		Checkpoint: sCheckpoint,
		Spans:      searchPhase.Scope(),
	}, drv)
	searchPhase.End()
	var budget *search.ErrBudget
	if serr != nil {
		var ae *search.AttemptError
		switch {
		case errors.As(serr, &ae):
			// A fatal attempt surfaces its own error (a local
			// *VerificationError, a coordinator's malformed request).
			return zero, fold, ae.Err
		case errors.As(serr, &budget):
			// The folded prefix may still hold a feasible incumbent.
		default:
			return zero, fold, serr
		}
	}
	if !out.Found {
		inf := &InfeasibleError{Attempts: out.Stats.Folded, First: firstErr}
		if budget != nil {
			return zero, fold, fmt.Errorf("%v: %w", inf, budget)
		}
		return zero, fold, inf
	}
	fold.CostMean = costSum / float64(fold.Feasible)
	fold.Panicked = out.Stats.Panicked
	fold.Degraded = out.Stats.Panicked > 0
	if opts.Resume != nil {
		fold.Resumed = true
		fold.ResumedFrom = opts.Resume.Folded
	}
	switch {
	case budget != nil:
		fold.Stopped = StoppedBudget
	case out.Stats.StaleStop:
		fold.Stopped = StoppedStale
	}
	return out.Best, fold, nil
}
