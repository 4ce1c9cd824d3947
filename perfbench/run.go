package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"fpgapart/internal/cluster"
	"fpgapart/internal/core"
	"fpgapart/internal/hypergraph"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median, and the last instance runs the jobs.
const setupReps = 7

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

type metricValue struct {
	metricDef
	Value float64
}

// report is the result of one run: its record in a result set.
type report struct {
	Workload  string
	Seed      int64
	Trace     bool
	Host      hostInfo
	Inputs    []inputInfo
	Attempted int
	Failed    int
	Errors    []string
	Metrics   []metricValue
	// quality repeats the result-quality metrics in traced runs too,
	// where they are not printed.
	quality map[string]float64
}

func (r *report) correct() bool { return r.Failed == 0 && len(r.Errors) == 0 }

func (r *report) fail(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

type hostInfo struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// inputInfo describes one circuit of the job set as the partitioner
// sees it (gate-level inputs after mapping).
type inputInfo struct {
	Name      string `json:"name"`
	Format    string `json:"format"`
	Cells     int    `json:"cells"`
	Nets      int    `json:"nets"`
	Terminals int    `json:"terminals"`
}

// phase is one timed window of whole repetitions of the job set.
type phase struct {
	outs  []outcome
	first []*outcome // per job, its first outcome (keeps the batch result)
	reps  int
	wall  time.Duration
	// rssMB is the peak resident set of each repetition, or of the
	// whole window where the peak cannot be reset.
	rssMB []float64
}

// measure replays the job set in a closed loop of clients for about
// the budget and at least minJobs jobs. Work is measured in whole
// repetitions, so every repetition does identical work: at the end of
// one, the next starts unless that would take the window further past
// the budget than stopping leaves it short (judged by the mean
// repetition so far). The first repetition always runs.
func measure(ctx context.Context, ex executor, clients, n int, budget time.Duration, minJobs int, tr *tracing) *phase {
	p := &phase{first: make([]*outcome, n)}
	var mu sync.Mutex
	next := 0
	kept := make([]bool, n)
	perRep := resetPeakRSS()
	start := time.Now()
	done := func() bool {
		if ctx.Err() != nil {
			return true
		}
		if next == 0 || next%n != 0 || next < minJobs {
			return false
		}
		el := time.Since(start)
		return el+el/time.Duration(2*next/n) >= budget
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				mu.Lock()
				if done() {
					mu.Unlock()
					return
				}
				if perRep && next > 0 && next%n == 0 {
					p.rssMB = append(p.rssMB, peakRSSMB())
					resetPeakRSS()
				}
				i := next
				next++
				mu.Unlock()
				o := ex.do(ctx, c, i%n, tr)
				mu.Lock()
				if kept[o.job] {
					o.res, o.graph = nil, nil
				}
				kept[o.job] = true
				p.outs = append(p.outs, o)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.rssMB = append(p.rssMB, peakRSSMB())
	p.reps = (next + n - 1) / n
	for i := range p.outs {
		if j := p.outs[i].job; p.first[j] == nil {
			p.first[j] = &p.outs[i]
		}
	}
	return p
}

// tally counts the phase's jobs as attempted and the failed ones: a
// job fails when it errors, when its summary differs from the job's
// reference run at the same seed, or when its result failed the
// outside-in checks (then every run of it counts).
func tally(rep *report, p *phase, ref []*outcome, badJob []bool) {
	for i := range p.outs {
		o := &p.outs[i]
		rep.Attempted++
		switch {
		case o.err != nil:
			rep.Failed++
			rep.fail("%v", o.err)
		case badJob[o.job] || ref[o.job] == nil || ref[o.job].err != nil:
			rep.Failed++
		case o.sum.key() != ref[o.job].sum.key():
			rep.Failed++
			rep.fail("%s: summary differs between runs at one seed", o.name)
		}
	}
}

// verifyJobs runs the correctness gate on every job of the set and
// returns each job's interconnect. Batch jobs are checked on the
// result they returned; a served job is re-run in-process at its seed,
// checked, and must match the summary the server returned.
func verifyJobs(ctx context.Context, w workload, jobs []jobSpec, p *phase, badJob []bool, rep *report) []int {
	hops := make([]int, len(jobs))
	for j, spec := range jobs {
		f := p.first[j]
		if f == nil || f.err != nil {
			badJob[j] = true
			continue
		}
		opts, err := spec.options()
		if err != nil {
			badJob[j] = true
			rep.fail("%v", err)
			continue
		}
		src, res := f.graph, f.res
		if w.Served {
			if src, err = spec.parse(); err == nil {
				var r core.Result
				r, err = core.PartitionContext(ctx, src, opts)
				res = &r
			}
			if err == nil && summarize(*res).key() != f.sum.key() {
				err = fmt.Errorf("served summary differs from the in-process run at the same seed")
			}
		}
		if err == nil {
			hops[j], err = checkResult(src, *res, opts.Board, f.sum)
		}
		if err != nil {
			badJob[j] = true
			rep.fail("%s: %v", spec.Name, err)
		}
	}
	return hops
}

// run executes one benchmark run and returns its report. An error
// means the run could not be carried out at all.
func run(ctx context.Context, cfg config) (*report, error) {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	rep := &report{Workload: w.Name, Seed: cfg.seed, Trace: cfg.trace, Host: host()}

	var jobs []jobSpec
	var ex executor
	var setupS []float64
	for i := 0; i < setupReps; i++ {
		if ex != nil {
			if err := ex.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC() // each set-up starts from the same heap
		start := time.Now()
		var err error
		if jobs, err = w.jobs(cfg.seed); err != nil {
			return nil, fmt.Errorf("generating inputs: %w", err)
		}
		if ex, err = newExecutor(w, jobs, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer func() {
		if ex != nil {
			ex.close()
		}
	}()
	inputs, err := describeInputs(jobs)
	if err != nil {
		return nil, err
	}
	rep.Inputs = inputs
	budget := time.Duration(cfg.seconds) * time.Second
	badJob := make([]bool, len(jobs))

	if !cfg.trace {
		p := measure(ctx, ex, w.Clients, len(jobs), budget, w.MinJobs, nil)
		err := ex.close()
		ex = nil
		if err != nil {
			return nil, err
		}
		hops := verifyJobs(ctx, w, jobs, p, badJob, rep)
		tally(rep, p, p.first, badJob)
		rep.Metrics = endToEndMetrics(jobs, p, hops, rep, median(setupS))
		return rep, nil
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	u := measure(ctx, ex, w.Clients, len(jobs), budget/2, 0, nil)
	runtime.ReadMemStats(&ms1)
	t, tr, cnt, sc, err := tracedPhase(ctx, w, jobs, ex, budget/2)
	if err != nil {
		return nil, err
	}
	err = ex.close()
	ex = nil
	if err != nil {
		return nil, err
	}
	hops := verifyJobs(ctx, w, jobs, u, badJob, rep)
	// Both phases must reproduce the untraced summaries exactly.
	tally(rep, u, u.first, badJob)
	tally(rep, t, u.first, badJob)

	tree := newSpanTree()
	for i := range t.outs {
		o := &t.outs[i]
		spans, dropped := tr.tracer.Collector().Trace(o.root.Scope().TraceID())
		tree.add(spans, dropped, o.root.SpanID())
	}
	if tree.dropped > 0 {
		rep.fail("trace incomplete: %d spans dropped; self times withheld", tree.dropped)
	}
	if tree.orphans > 0 {
		rep.fail("trace incomplete: %d attempt spans not under the benchmark's job root", tree.orphans)
	}
	lt, err := timeLayers(jobs)
	if err != nil {
		return nil, err
	}
	lt.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / float64(len(u.outs))
	lt.gcCycles = float64(ms1.NumGC-ms0.NumGC) / float64(len(u.outs))
	rep.quality = quality(jobs, u, hops)
	rep.Metrics = perLayerMetrics(w, jobs, u, t, hops, cnt, sc, tree, lt)
	return rep, nil
}

// tracedPhase replays the job set with tracing armed. Served jobs go
// to a second server whose tracer is the benchmark's, and whose
// /metrics supplies the engine counts.
func tracedPhase(ctx context.Context, w workload, jobs []jobSpec, ex executor, budget time.Duration) (*phase, *tracing, counts, scrape, error) {
	tr := newTracing(w.Name)
	if !w.Served {
		t := measure(ctx, ex, w.Clients, len(jobs), budget, 0, tr)
		return t, tr, tr.sink.snapshot(), nil, nil
	}
	s, err := newServed(jobs, w.Clients, tr)
	if err != nil {
		return nil, nil, counts{}, nil, fmt.Errorf("set-up of the traced server: %w", err)
	}
	t := measure(ctx, s, w.Clients, len(jobs), budget, 0, tr)
	sc, err := s.scrape(ctx)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, counts{}, nil, err
	}
	return t, tr, sc.counts(), sc, nil
}

func newExecutor(w workload, jobs []jobSpec, tr *tracing) (executor, error) {
	if w.Served {
		return newServed(jobs, w.Clients, tr)
	}
	return &batchExec{jobs: jobs}, nil
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func endToEndMetrics(jobs []jobSpec, p *phase, hops []int, rep *report, setupS float64) []metricValue {
	var walls []float64
	cells, wall := 0.0, 0.0
	for _, o := range p.outs {
		if o.err == nil {
			walls = append(walls, o.wall.Seconds())
			cells += float64(o.sum.SourceCells)
			wall += o.wall.Seconds()
		}
	}
	v := quality(jobs, p, hops)
	v["job_s_p50"] = percentile(walls, 0.5)
	v["job_s_p90"] = percentile(walls, 0.9)
	v["cells_per_s"] = ratio(cells, wall)
	v["jobs_per_s"] = ratio(float64(len(walls)), p.wall.Seconds())
	v["ok_frac"] = 1 - ratio(float64(rep.Failed), float64(rep.Attempted))
	v["setup_s"] = setupS
	v["peak_rss_mb"] = median(p.rssMB)
	return values(endToEnd, v)
}

// quality is the result quality of one repetition of the job set:
// sums of device cost, k and interconnect, and mean utilizations.
func quality(jobs []jobSpec, p *phase, hops []int) map[string]float64 {
	var cost, k, clb, iob, topo float64
	for j := range jobs {
		if f := p.first[j]; f != nil && f.err == nil {
			cost += f.sum.DeviceCost
			k += float64(f.sum.K)
			clb += f.sum.CLBUtil / float64(len(jobs))
			iob += f.sum.IOBUtil / float64(len(jobs))
			topo += float64(hops[j])
		}
	}
	return map[string]float64{"device_cost": cost, "parts_k": k, "clb_util": clb, "iob_util": iob, "topo_cost": topo}
}

func values(defs []metricDef, v map[string]float64) []metricValue {
	out := make([]metricValue, 0, len(defs))
	for _, d := range defs {
		if x, ok := v[d.Name]; ok {
			out = append(out, metricValue{d, x})
		}
	}
	return out
}

// layerTimes are the timed calls into single layers' public functions.
type layerTimes struct {
	readS, readMB, mapS float64
	bipartS, clusterS   float64
	allocMB, gcCycles   float64
}

// timeLayers times, each as the median of three calls, the parsing of
// every distinct input and, on the workload's largest mapped circuit,
// an FM bipartition and a cluster hierarchy build at fixed seeds.
func timeLayers(jobs []jobSpec) (layerTimes, error) {
	var lt layerTimes
	var largest *hypergraph.Graph
	seen := make(map[string]bool)
	for _, j := range jobs {
		if seen[j.Text] {
			continue
		}
		seen[j.Text] = true
		var g *hypergraph.Graph
		s, err := timed(func() (err error) {
			g, err = j.parse()
			return err
		})
		if err != nil {
			return lt, fmt.Errorf("%s: %w", j.Name, err)
		}
		if j.GNL {
			lt.mapS += s
			continue
		}
		lt.readS += s
		lt.readMB += float64(len(j.Text)) / 1e6
		if largest == nil || g.NumCells() > largest.NumCells() {
			largest = g
		}
	}
	var err error
	lt.bipartS, err = timed(func() error {
		_, _, err := core.MinCutBipartition(largest, core.BipartitionOptions{Threshold: 1, Seed: 1})
		return err
	})
	if err != nil {
		return lt, fmt.Errorf("bipartition: %w", err)
	}
	lt.clusterS, err = timed(func() error {
		_, err := cluster.Build(largest, cluster.Options{Seed: 1})
		return err
	})
	if err != nil {
		return lt, fmt.Errorf("cluster build: %w", err)
	}
	return lt, nil
}

func timed(f func() error) (float64, error) {
	var ts []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(start).Seconds())
	}
	return median(ts), nil
}

func perLayerMetrics(w workload, jobs []jobSpec, u, t *phase, hops []int, cnt counts, sc scrape, tree *spanTree, lt layerTimes) []metricValue {
	reps := float64(t.reps)
	per := func(x float64) float64 { return x / reps }
	att := tree.agg("attempt")
	fmPass := tree.agg("fm-pass")
	parPass := tree.agg("parfm-pass")
	coarsen := tree.agg("coarsen")
	level := tree.agg("level")

	var tracedWall, boardJobs, boardFailed, boardHops, replicated float64
	var tracedWalls, untracedWalls []float64
	for _, o := range t.outs {
		tracedWall += o.wall.Seconds()
		tracedWalls = append(tracedWalls, o.wall.Seconds())
	}
	for _, o := range u.outs {
		untracedWalls = append(untracedWalls, o.wall.Seconds())
	}
	pool := 0
	for j, spec := range jobs {
		pool = max(pool, spec.pool())
		f := u.first[j]
		if f == nil || f.err != nil {
			continue
		}
		replicated += float64(f.sum.ReplicatedCells)
		if spec.Board != "" {
			boardJobs++
			boardFailed += float64(f.sum.Failed)
			boardHops += float64(hops[j])
		}
	}
	fmMoves := per(float64(cnt.fmMoves - cnt.parCommits))
	fsync := sc["fpgapart_jobstore_fsync_seconds_sum"]
	v := map[string]float64{
		"hypergraph.read_s":        lt.readS,
		"hypergraph.read_mb_per_s": ratio(lt.readMB, lt.readS),
		"techmap.map_s":            lt.mapS,

		"search.attempts":        per(float64(att.count)),
		"search.failed_attempts": per(float64(cnt.infeasible)),
		"search.attempt_s_p50":   percentile(seconds(att.durs), 0.5),
		"search.busy_frac":       ratio(att.dur.Seconds(), t.wall.Seconds()*float64(pool)),

		"kway.carve_tries":        per(float64(cnt.carves + cnt.rejTerminals + cnt.rejOther)),
		"kway.carves":             per(float64(cnt.carves)),
		"kway.carve_accept_ratio": ratio(float64(cnt.carves), float64(cnt.carves+cnt.rejTerminals+cnt.rejOther)),
		"kway.rejects.terminals":  per(float64(cnt.rejTerminals)),
		"kway.rejects.other":      per(float64(cnt.rejOther)),
		"kway.attempt_self_s":     per(att.self.Seconds()),
		"kway.fold_s":             per(tree.agg("fold").self.Seconds()),

		"fm.passes":        per(float64(fmPass.count)),
		"fm.moves":         fmMoves,
		"fm.pass_s":        per(fmPass.self.Seconds()),
		"fm.moves_per_s":   ratio(fmMoves, per(fmPass.self.Seconds())),
		"fm.bipartition_s": lt.bipartS,

		"replication.replicas":         per(float64(cnt.replicas)),
		"replication.rollbacks":        per(float64(cnt.rollbacks)),
		"replication.replicated_cells": replicated,

		"parfm.passes":      per(float64(parPass.count)),
		"parfm.rounds":      per(float64(cnt.parRounds)),
		"parfm.proposals":   per(float64(cnt.parProposals)),
		"parfm.commits":     per(float64(cnt.parCommits)),
		"parfm.stale_ratio": ratio(float64(cnt.parStale), float64(cnt.parProposals)),
		"parfm.pass_s":      per(parPass.self.Seconds()),

		"multilevel.vcycles":      per(float64(coarsen.count)),
		"multilevel.levels":       per(float64(level.count)),
		"multilevel.coarsen_s":    per(coarsen.self.Seconds()),
		"multilevel.uncoarsen_s":  per(tree.agg("uncoarsen").self.Seconds()),
		"multilevel.level_self_s": per(level.self.Seconds()),
		"cluster.build_s":         lt.clusterS,

		"topology.board_jobs":      boardJobs,
		"topology.failed_attempts": boardFailed,
		"topology.board_topo_cost": boardHops,

		"server.queue_wait_s_p50": percentile(seconds(tree.queueWaits), 0.5),
		"server.job_span_s_p50":   percentile(seconds(tree.agg("job").durs), 0.5),
		"server.http_s_p50":       sc.histQuantile("fpgapart_http_request_duration_seconds", `endpoint="/v1/partition"`, 0.5),

		"jobstore.appends":     per(sc.sum("fpgapart_jobstore_appends_total")),
		"jobstore.fsync_s":     per(fsync),
		"jobstore.fsync_share": ratio(fsync, tracedWall),

		"span.count":         per(float64(tree.spans)),
		"span.dropped":       float64(tree.dropped),
		"span.overhead_frac": ratio(percentile(tracedWalls, 0.5), percentile(untracedWalls, 0.5)) - 1,

		"go.alloc_mb_per_job": lt.allocMB,
		"go.gc_cycles":        lt.gcCycles,
	}
	if tree.dropped > 0 {
		for name := range selfTimeMetrics {
			delete(v, name)
		}
	}
	return values(perLayer, v)
}

// describeInputs records the size of every distinct circuit of the set.
func describeInputs(jobs []jobSpec) ([]inputInfo, error) {
	var out []inputInfo
	seen := make(map[string]bool)
	for _, j := range jobs {
		if seen[j.Text] {
			continue
		}
		seen[j.Text] = true
		g, err := j.parse()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j.Name, err)
		}
		format := "clb"
		if j.GNL {
			format = "gnl"
		}
		out = append(out, inputInfo{Name: g.Name, Format: format, Cells: g.NumCells(), Nets: g.NumNets(), Terminals: g.NumTerminals()})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out, nil
}

func host() hostInfo {
	return hostInfo{
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(),
	}
}

// commit identifies the code under test: the VCS revision stamped into
// the binary when it was built inside a repository, otherwise a hash
// of the Go sources and module files under the working directory.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == scratchDir) {
				return filepath.SkipDir
			}
			return nil
		}
		if name := d.Name(); !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// resetPeakRSS restarts the kernel's peak resident set (VmHWM) from the
// current resident set; false where that is not supported.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB, or the
// Go runtime's reserved memory where /proc is not available.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / 1e6
}
