package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"fpgapart/internal/core"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/jobstore"
	"fpgapart/internal/server"
	"fpgapart/internal/span"
	"fpgapart/internal/telemetry"
)

// scratchDir holds the durable job stores, inside the directory the
// benchmark runs from.
const scratchDir = ".bench_build"

// tracing arms a traced run: every job gets its own trace under a
// benchmark root span, and batch jobs feed the count sink.
type tracing struct {
	tracer *span.Tracer
	sink   *countSink
	tag    string
	seq    atomic.Int64
}

func newTracing(tag string) *tracing {
	return &tracing{
		// Raised bounds so no span of any job is dropped: the default
		// 8192 spans per trace loses the roots of 2k-cell jobs.
		tracer: span.NewTracer(span.Options{Process: "perfbench", MaxTraces: 1 << 20, MaxSpansPerTrace: 1 << 24}),
		sink:   &countSink{},
		tag:    tag,
	}
}

// start opens the benchmark's root span of one job in a fresh trace.
func (t *tracing) start() span.Running {
	id := span.DeriveTraceID(fmt.Sprintf("perfbench/%s/%d", t.tag, t.seq.Add(1)), 0, 0)
	return t.tracer.Root(id, 0).Start("bench-job", -1)
}

// outcome is one finished job.
type outcome struct {
	job  int
	name string
	wall time.Duration
	sum  summary
	err  error
	// res and graph are kept for batch jobs so the result can be
	// verified against its source circuit after the timed window.
	res   *core.Result
	graph *hypergraph.Graph
	root  span.Running // zero when untraced
}

// executor runs jobs of a set; client selects the caller's connection.
type executor interface {
	do(ctx context.Context, client, job int, tr *tracing) outcome
	close() error
}

// batchExec runs jobs in-process: read the circuit text, then
// partition it, as kpart does.
type batchExec struct{ jobs []jobSpec }

func (b *batchExec) do(ctx context.Context, _ int, i int, tr *tracing) outcome {
	spec := b.jobs[i]
	out := outcome{job: i, name: spec.Name}
	opts, err := spec.options()
	if err != nil {
		out.err = err
		return out
	}
	if tr != nil {
		out.root = tr.start()
		opts.Spans = out.root.Scope()
		opts.Trace = tr.sink
	}
	start := time.Now()
	read := out.root.Scope().Start("bench-read", -1)
	g, err := hypergraph.ReadLimits(strings.NewReader(spec.Text), hypergraph.Limits{})
	read.End()
	var res core.Result
	if err == nil {
		res, err = core.PartitionContext(ctx, g, opts)
	}
	out.wall = time.Since(start)
	out.root.End()
	if err != nil {
		out.err = fmt.Errorf("%s: %w", out.name, err)
		return out
	}
	out.sum, out.res, out.graph = summarize(res), &res, g
	return out
}

func (b *batchExec) close() error { return nil }

// servedExec sends jobs to an in-process server over HTTP: one worker,
// a durable job store in a scratch directory, and one keep-alive
// connection per client.
type servedExec struct {
	jobs    []jobSpec
	bodies  [][]byte
	dir     string
	store   *jobstore.Store
	srv     *server.Server
	ts      *httptest.Server
	clients []*http.Client
}

func newServed(jobs []jobSpec, clients int, tr *tracing) (*servedExec, error) {
	s := &servedExec{jobs: jobs}
	for _, j := range jobs {
		req := server.JobRequest{Circuit: j.Text, Solutions: j.Solutions, Seed: j.Seed, Board: j.Board}
		if j.GNL {
			req.Format = "gnl"
		}
		b, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		s.bodies = append(s.bodies, b)
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchDir, "store-")
	if err != nil {
		return nil, err
	}
	s.dir = dir
	reg := telemetry.NewRegistry()
	st, _, err := jobstore.Open(jobstore.Options{Dir: dir, Metrics: jobstore.NewMetrics(reg)})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.store = st
	cfg := server.Config{
		Workers: 1, Metrics: reg, Store: st,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	if tr != nil {
		cfg.Tracer = tr.tracer
	}
	s.srv = server.New(cfg)
	s.ts = httptest.NewServer(s.srv)
	for i := 0; i < clients; i++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}})
	}
	return s, nil
}

func (s *servedExec) do(ctx context.Context, client, i int, tr *tracing) outcome {
	out := outcome{job: i, name: s.jobs[i].Name}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.ts.URL+"/v1/partition", bytes.NewReader(s.bodies[i]))
	if err != nil {
		out.err = err
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	if tr != nil {
		out.root = tr.start()
		req.Header.Set("traceparent", out.root.Scope().Traceparent())
	}
	start := time.Now()
	var st server.JobStatus
	resp, err := s.clients[client].Do(req)
	if err == nil {
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
	}
	out.wall = time.Since(start)
	out.root.End()
	switch {
	case err != nil:
		out.err = fmt.Errorf("%s: %w", out.name, err)
	case resp.StatusCode != http.StatusOK || st.Result == nil:
		out.err = fmt.Errorf("%s: HTTP %d state=%s kind=%s: %s", out.name, resp.StatusCode, st.State, st.ErrorKind, st.Error)
	default:
		out.sum = summarizeServed(st.Result)
	}
	return out
}

// scrape reads the server's /metrics.
func (s *servedExec) scrape(ctx context.Context) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.ts.URL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.clients[0].Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	return parseScrape(resp.Body)
}

// close drains the server, stops the listener, closes the store and
// removes its directory.
func (s *servedExec) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	s.ts.Close()
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}
