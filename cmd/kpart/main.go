// Command kpart partitions a circuit into a heterogeneous FPGA
// library, minimizing total device cost (Eq. 1) and interconnect
// (Eq. 2) with optional functional replication.
//
// Input is either a mapped circuit (.clb, see internal/hypergraph) or
// a gate-level netlist (.gnl, see internal/netlist), which is
// technology-mapped first.
//
// Usage:
//
//	kpart [-t 1] [-solutions 50] [-seed 1] [-timeout 30s] [-gate] [-v]
//	      [-store dir] [-resume dir] [-checkpoint-every 1] circuit.clb
//
// With -store, the search reduction is persisted to a crash-safe
// append-only store after every -checkpoint-every folded attempts;
// -resume continues an interrupted run from the newest checkpoint
// (the trace stream reports the resume point as resumed_from_attempt).
//
// Exit codes: 0 = success; 1 = error (I/O, configuration,
// verification); 2 = infeasible instance (the full attempt budget ran
// without a feasible solution); 3 = -timeout expired before any
// feasible solution; 4 = malformed input (parse error or resource
// limit, with line/column context on stderr); 5 = the -trace-out
// span timeline could not be written; 6 = usage error (unknown or
// malformed flag, wrong argument count). -h prints the usage and
// exits 0.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fpgapart/internal/core"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/jobstore"
	"fpgapart/internal/kway"
	"fpgapart/internal/netlist"
	"fpgapart/internal/prof"
	"fpgapart/internal/report"
	"fpgapart/internal/search"
	"fpgapart/internal/span"
	"fpgapart/internal/techmap"
	"fpgapart/internal/telemetry"
	"fpgapart/internal/topology"
	"fpgapart/internal/trace"
	"fpgapart/internal/verify"
)

func main() {
	threshold := flag.Int("t", 1, "replication potential threshold T (-1 disables replication)")
	solutions := flag.Int("solutions", 50, "feasible k-way solutions to generate")
	seed := flag.Int64("seed", 1, "random seed")
	gate := flag.Bool("gate", false, "input is a gate-level netlist (.gnl); map it first")
	verbose := flag.Bool("v", false, "print per-part details")
	check := flag.Bool("verify", false, "verify every accepted carve and solution in-loop, plus the final result")
	outDir := flag.String("o", "", "write each part as <dir>/<circuit>.pN.clb")
	jsonOut := flag.Bool("json", false, "print the solution summary as JSON")
	timeout := flag.Duration("timeout", 0, "wall-clock search budget (0 = unlimited); on expiry the best solution so far is kept")
	maxStale := flag.Int("max-stale", 0, "stop after this many consecutive non-improving solutions (0 = run all)")
	refineWorkers := flag.Int("refine-workers", 0, "FM refinement workers: >=2 runs the deterministic parallel sub-round engine, 0 or 1 the classic serial engine")
	multilevel := flag.Bool("multilevel", false, "seed large carve subproblems with the multilevel V-cycle (coarsen, partition, uncoarsen+refine)")
	progress := flag.Bool("progress", false, "print per-solution progress and search statistics to stderr")
	statsJSON := flag.String("stats-json", "", "stream structured engine events (FM passes, carves, solutions) as JSONL to this file")
	board := flag.String("board", "", "multi-FPGA board topology: a spec (crossbar:N[:CAP], linear:N[:CAP], mesh:RxC[:CAP]) or a board-description file; switches the search to the hop-weighted interconnect objective")
	metricsOut := flag.String("metrics-out", "", "write a final metrics snapshot (Prometheus text format 0.0.4) to this file")
	traceOut := flag.String("trace-out", "", "record the run as a span tree and write it as Chrome trace_event JSON (load in Perfetto or chrome://tracing) to this file")
	storeDir := flag.String("store", "", "durable checkpoint store directory: the search reduction is persisted every -checkpoint-every folded attempts so an interrupted run can continue with -resume")
	resumeDir := flag.String("resume", "", "resume an interrupted run from the newest checkpoint in this store directory (implies -store DIR; flags and circuit must match the original run)")
	ckptEvery := flag.Int("checkpoint-every", 1, "durable checkpoint cadence in folded attempts (with -store)")
	profFlags := prof.Register(flag.CommandLine)
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: kpart [flags] <circuit.clb|circuit.gnl>")
		flag.PrintDefaults()
		fmt.Fprint(os.Stderr, `
exit codes:
  0  success
  1  error (I/O, configuration, verification failure)
  2  infeasible instance: the attempt budget ran without a feasible solution
  3  -timeout expired before any feasible solution was found
  4  malformed input: parse error or resource limit (line/column on stderr)
  5  -trace-out span timeline could not be written
  6  usage error: unknown or malformed flag, wrong argument count
`)
	}
	// ContinueOnError keeps a bad flag off exit 2, which means
	// "infeasible" here; the flag package has already printed the
	// error and the usage when Parse fails.
	flag.CommandLine.Init("kpart", flag.ContinueOnError)
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		os.Exit(exitUsage)
	}
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(exitUsage)
	}
	stopProf, err := profFlags.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "kpart:", err)
		os.Exit(1)
	}
	err = run(runConfig{
		path:          flag.Arg(0),
		threshold:     *threshold,
		solutions:     *solutions,
		seed:          *seed,
		gate:          *gate || strings.HasSuffix(flag.Arg(0), ".gnl"),
		verbose:       *verbose,
		check:         *check,
		outDir:        *outDir,
		jsonOut:       *jsonOut,
		timeout:       *timeout,
		maxStale:      *maxStale,
		multilevel:    *multilevel,
		refineWorkers: *refineWorkers,
		progress:      *progress,
		statsJSON:     *statsJSON,
		metricsOut:    *metricsOut,
		traceOut:      *traceOut,
		board:         *board,
		storeDir:      *storeDir,
		resumeDir:     *resumeDir,
		ckptEvery:     *ckptEvery,
	})
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "kpart:", err)
		os.Exit(exitCode(err))
	}
}

// exitUsage is the exit code of a command-line usage error.
const exitUsage = 6

// exitCode maps failure modes to the documented exit codes. The budget
// check comes first: a timeout with no feasible solution wraps both
// error types, and "ran out of time" is the actionable diagnosis.
func exitCode(err error) int {
	var texp *traceExportError
	if errors.As(err, &texp) {
		return 5
	}
	var budget *search.ErrBudget
	if errors.As(err, &budget) {
		return 3
	}
	var inf *kway.InfeasibleError
	if errors.As(err, &inf) {
		return 2
	}
	var nperr *netlist.ParseError
	var hperr *hypergraph.ParseError
	if errors.As(err, &nperr) || errors.As(err, &hperr) {
		return 4
	}
	return 1
}

type runConfig struct {
	path          string
	threshold     int
	solutions     int
	seed          int64
	gate          bool
	verbose       bool
	check         bool
	outDir        string
	jsonOut       bool
	timeout       time.Duration
	maxStale      int
	multilevel    bool
	refineWorkers int
	progress      bool
	statsJSON     string
	metricsOut    string
	traceOut      string
	board         string
	storeDir      string
	resumeDir     string
	ckptEvery     int
}

// cliJobID is the fixed job identity a CLI run records in its store;
// one store directory holds one resumable run.
const cliJobID = "cli"

// openRunStore opens (or creates) the durable checkpoint store and,
// for -resume, loads the newest persisted checkpoint of the prior run.
func openRunStore(cfg runConfig) (*jobstore.Store, *kway.SearchCheckpoint, error) {
	dir := cfg.storeDir
	if dir == "" {
		dir = cfg.resumeDir
	}
	store, jobs, err := jobstore.Open(jobstore.Options{Dir: dir})
	if err != nil {
		return nil, nil, err
	}
	var resume *kway.SearchCheckpoint
	if cfg.resumeDir != "" {
		for _, j := range jobs {
			if j.ID != cliJobID || len(j.Checkpoint) == 0 {
				continue
			}
			cp := new(kway.SearchCheckpoint)
			if err := json.Unmarshal(j.Checkpoint, cp); err != nil {
				store.Close()
				return nil, nil, fmt.Errorf("resume %s: corrupt checkpoint: %w", cfg.resumeDir, err)
			}
			resume = cp
		}
		if resume == nil {
			fmt.Fprintf(os.Stderr, "kpart: no checkpoint in %s; starting fresh\n", cfg.resumeDir)
		}
	}
	if store.Job(cliJobID) == nil {
		if err := store.AppendSubmit(cliJobID, map[string]any{
			"circuit": cfg.path, "solutions": cfg.solutions, "seed": cfg.seed,
		}); err != nil {
			store.Close()
			return nil, nil, err
		}
	}
	return store, resume, nil
}

// progressSink prints one stderr line per folded solution attempt.
// Solution events are emitted by the single-threaded index-ordered
// reduction, so the lines appear in deterministic order.
type progressSink struct{ total int }

func (p progressSink) Event(e trace.Event) {
	if e.Kind != trace.KindSolution {
		return
	}
	if !e.Feasible {
		fmt.Fprintf(os.Stderr, "kpart: attempt %d/%d: infeasible\n", e.Attempt+1, p.total)
		return
	}
	marker := ""
	if e.Improved {
		marker = "  (new best)"
	}
	fmt.Fprintf(os.Stderr, "kpart: attempt %d/%d: k=%d cost=%.0f%s\n", e.Attempt+1, p.total, e.Parts, e.Cost, marker)
}

func run(cfg runConfig) error {
	// Span tracing: one "job" root span for the run, trace ID derived
	// from the CLI store identity (cliJobID, seed, solutions) so a
	// -resume run records into the same logical trace as the run it
	// continues. Disarmed (the zero Running), every Start below is a
	// predicted no-op branch.
	var tracer *span.Tracer
	var jobRun span.Running
	if cfg.traceOut != "" {
		tracer = span.NewTracer(span.Options{Process: "kpart"})
		tid := span.DeriveTraceID(cliJobID, cfg.seed, cfg.solutions)
		jobRun = tracer.Root(tid, 0).Start("job", -1)
	}

	parseStart := time.Now()
	parseSpan := jobRun.Scope().Start("parse", -1)
	f, err := os.Open(cfg.path)
	if err != nil {
		return err
	}
	defer f.Close()

	var g *hypergraph.Graph
	if cfg.gate {
		n, err := netlist.Read(f)
		if err != nil {
			return err
		}
		m, err := techmap.Map(n, techmap.Options{Seed: cfg.seed})
		if err != nil {
			return err
		}
		s := n.Stats()
		fmt.Printf("mapped %s: %d gates (%d FF) -> %d CLBs, %d IOBs\n",
			n.Name, s.Gates, s.DFFs, m.Graph.NumCells(), m.Graph.NumTerminals())
		g = m.Graph
	} else {
		g, err = hypergraph.Read(f)
		if err != nil {
			return err
		}
	}
	parseSpan.Detail(fmt.Sprintf("circuit=%s cells=%d", g.Name, g.NumCells()))
	parseSpan.End()
	jobRun.Detail(fmt.Sprintf("circuit=%s seed=%d solutions=%d", g.Name, cfg.seed, cfg.solutions))

	var sinks []trace.Sink
	var agg *trace.Agg
	if cfg.progress {
		agg = &trace.Agg{}
		sinks = append(sinks, progressSink{total: cfg.solutions}, agg)
	}
	var jsonl *trace.JSONL
	var jsonlFile *os.File
	if cfg.statsJSON != "" {
		jsonlFile, err = os.Create(cfg.statsJSON)
		if err != nil {
			return err
		}
		jsonl = trace.NewJSONL(jsonlFile)
		sinks = append(sinks, jsonl)
	}
	var board *topology.Board
	if cfg.board != "" {
		board, err = topology.FromArg(cfg.board)
		if err != nil {
			return err
		}
	}
	var reg *telemetry.Registry
	var boardGauges *telemetry.BoardGauges
	if cfg.metricsOut != "" {
		reg = telemetry.NewRegistry()
		sinks = append(sinks, telemetry.NewBridge(reg))
		if board != nil {
			boardGauges = telemetry.NewBoardGauges(reg, board)
		}
	}

	// Durable checkpoint store: every persisted snapshot is fsync'd
	// before the append returns, so a crash at any point loses at most
	// the attempts folded since the last checkpoint.
	var store *jobstore.Store
	var resumeCP *kway.SearchCheckpoint
	var storeErr error
	if cfg.storeDir != "" || cfg.resumeDir != "" {
		store, resumeCP, err = openRunStore(cfg)
		if err != nil {
			return err
		}
		defer store.Close()
	}

	sink := trace.Multi(sinks...)
	if sink != nil {
		sink.Event(trace.Event{Kind: trace.KindPhase, Attempt: -1, Phase: trace.PhaseParse, Dur: time.Since(parseStart)})
	}
	opts := core.Options{
		Threshold:     cfg.threshold,
		Solutions:     cfg.solutions,
		Seed:          cfg.seed,
		Verify:        cfg.check,
		Timeout:       cfg.timeout,
		MaxStale:      cfg.maxStale,
		Multilevel:    cfg.multilevel,
		RefineWorkers: cfg.refineWorkers,
		Trace:         sink,
		Board:         board,
		Resume:        resumeCP,
		Spans:         jobRun.Scope(),
	}
	if store != nil {
		opts.CheckpointEvery = cfg.ckptEvery
		opts.Checkpoint = func(cp kway.SearchCheckpoint) {
			if err := store.AppendCheckpoint(cliJobID, cp); err != nil && storeErr == nil {
				storeErr = fmt.Errorf("checkpoint store: %w", err)
			}
		}
	}
	res, err := core.Partition(g, opts)
	if boardGauges != nil && err == nil {
		graphs := make([]*hypergraph.Graph, len(res.Parts))
		for i, p := range res.Parts {
			graphs[i] = p.Graph
		}
		boardGauges.SetLoads(verify.LinkLoads(board, graphs))
	}
	if agg != nil {
		c := agg.Snapshot()
		fmt.Fprintf(os.Stderr, "kpart: stats: %d FM passes, %d moves; %d carves (%d rejected), %d replicas, %d rollbacks\n",
			c.Passes, c.Moves, c.Carves, c.RejectedCarves, c.Replicas, c.Rollbacks)
	}
	if jsonl != nil {
		// The stats stream is a deliverable: a sink write error — from
		// any event append or from the final close — must fail the run
		// with a non-zero exit, not leave a silently truncated file.
		jerr := jsonl.Err()
		if cerr := jsonlFile.Close(); jerr == nil {
			jerr = cerr
		}
		if jerr != nil && err == nil {
			err = fmt.Errorf("stats stream %s: %w", cfg.statsJSON, jerr)
		}
	}
	if reg != nil {
		// The snapshot is written even when the search failed: the
		// counters up to the failure are exactly what an operator wants.
		if merr := writeMetrics(cfg.metricsOut, reg); merr != nil && err == nil {
			err = merr
		}
	}
	if tracer != nil {
		// End the job span first so the root frame is in the timeline;
		// the export runs even on search failure — the spans up to the
		// failure are the diagnosis. An unwritable timeline is its own
		// failure mode (exit 5), mirroring the stats-stream contract.
		jobRun.End()
		spans, _ := tracer.Collector().Trace(jobRun.Scope().TraceID())
		if terr := writeTrace(cfg.traceOut, spans); terr != nil && err == nil {
			err = terr
		}
	}
	if store != nil && err == nil && storeErr == nil {
		// A terminal record marks the store complete; a later -resume of
		// the same directory replays the finished reduction and exits 0
		// instead of redoing the search.
		if derr := store.AppendDone(cliJobID, map[string]any{"device_cost": res.Summary.DeviceCost()}); derr != nil {
			storeErr = derr
		}
	}
	if storeErr != nil && err == nil {
		// Durability is a deliverable: a store the run could not append
		// to must fail loudly, not pose as a valid resume point.
		err = fmt.Errorf("checkpoint store %s: %w", cfg.storeDir, storeErr)
	}
	if err != nil {
		return err
	}
	s := res.Summary
	fmt.Printf("circuit %s: %d cells, %d CLBs, %d terminals\n",
		g.Name, g.NumCells(), g.TotalArea(), g.NumTerminals())
	fmt.Printf("partition: k=%d  cost=%.0f  avg CLB util=%.0f%%  avg IOB util=%.0f%%  replicated=%d (%.1f%%)\n",
		s.K(), s.DeviceCost(), 100*s.AvgCLBUtil(), 100*s.AvgIOBUtil(),
		s.ReplicatedCells(), s.ReplicatedPct(res.SourceCells))
	if res.Summary.HasTopo {
		fmt.Printf("topology: board %s  hop-weighted interconnect=%d\n", board.Name, res.Summary.TopoCost)
	}
	fmt.Printf("search: %d feasible solutions, %d failed attempts; cost spread min=%.0f mean=%.0f max=%.0f\n",
		res.Feasible, res.Failed, res.CostMin, res.CostMean, res.CostMax)
	if res.Resumed {
		fmt.Printf("search: resumed from attempt %d\n", res.ResumedFrom)
	}
	if res.Stopped != "" {
		fmt.Printf("search: stopped early (%s) with the best solution so far\n", res.Stopped)
	}
	if cfg.check {
		if err := res.Verify(g); err != nil {
			return err
		}
		fmt.Println("verify: partition is consistent (coverage, producers, IOB accounting)")
	}
	if cfg.verbose {
		t := report.NewTable("", "Part", "Device", "CLBs", "Util", "Terms", "IOBs", "Cells", "Replicas")
		for i, p := range res.Parts {
			t.Row(fmt.Sprintf("P%d", i), p.Device.Name, p.Graph.TotalArea(),
				fmt.Sprintf("%.0f%%", 100*p.Device.Utilization(p.Graph.TotalArea())),
				p.Graph.NumTerminals(), p.Device.IOBs, p.Graph.NumCells(), p.Replicas)
		}
		t.Render(os.Stdout)
	}
	if cfg.jsonOut {
		if err := writeJSON(os.Stdout, g, res, board); err != nil {
			return err
		}
	}
	if cfg.outDir != "" {
		if err := writeParts(cfg.outDir, g.Name, res); err != nil {
			return err
		}
		fmt.Printf("wrote %d part netlists to %s\n", len(res.Parts), cfg.outDir)
	}
	return nil
}

// writeMetrics snapshots the registry as Prometheus text exposition.
func writeMetrics(path string, reg *telemetry.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("metrics snapshot %s: %w", path, err)
	}
	err = reg.WriteText(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("metrics snapshot %s: %w", path, err)
	}
	return nil
}

// traceExportError marks a -trace-out timeline that could not be
// written; it maps to exit code 5.
type traceExportError struct{ err error }

func (e *traceExportError) Error() string { return e.err.Error() }
func (e *traceExportError) Unwrap() error { return e.err }

// writeTrace writes the recorded spans as Chrome trace_event JSON.
func writeTrace(path string, spans []span.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return &traceExportError{fmt.Errorf("trace export %s: %w", path, err)}
	}
	err = span.WriteChromeTrace(f, spans)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return &traceExportError{fmt.Errorf("trace export %s: %w", path, err)}
	}
	return nil
}

// writeParts materializes each part as a standalone .clb file.
func writeParts(dir, name string, res core.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, p := range res.Parts {
		path := filepath.Join(dir, fmt.Sprintf("%s.p%d.clb", name, i))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = hypergraph.Write(f, p.Graph)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// jsonSolution is the machine-readable summary schema.
type jsonSolution struct {
	Circuit     string     `json:"circuit"`
	K           int        `json:"k"`
	DeviceCost  float64    `json:"device_cost"`
	CLBUtil     float64    `json:"avg_clb_util"`
	IOBUtil     float64    `json:"avg_iob_util"`
	Replicated  int        `json:"replicated_cells"`
	SourceCells int        `json:"source_cells"`
	Board       string     `json:"board,omitempty"`
	TopoCost    *int       `json:"topo_cost,omitempty"`
	Parts       []jsonPart `json:"parts"`
}

type jsonPart struct {
	Device    string `json:"device"`
	CLBs      int    `json:"clbs"`
	Terminals int    `json:"terminals"`
	Cells     int    `json:"cells"`
	Replicas  int    `json:"replicas"`
}

func writeJSON(w io.Writer, g *hypergraph.Graph, res core.Result, board *topology.Board) error {
	out := jsonSolution{
		Circuit:     g.Name,
		K:           res.Summary.K(),
		DeviceCost:  res.Summary.DeviceCost(),
		CLBUtil:     res.Summary.AvgCLBUtil(),
		IOBUtil:     res.Summary.AvgIOBUtil(),
		Replicated:  res.Summary.ReplicatedCells(),
		SourceCells: res.SourceCells,
	}
	if res.Summary.HasTopo && board != nil {
		out.Board = board.Name
		topo := res.Summary.TopoCost
		out.TopoCost = &topo
	}
	for _, p := range res.Parts {
		out.Parts = append(out.Parts, jsonPart{
			Device: p.Device.Name, CLBs: p.Graph.TotalArea(),
			Terminals: p.Graph.NumTerminals(), Cells: p.Graph.NumCells(), Replicas: p.Replicas,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
