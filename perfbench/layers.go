package main

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"fpgapart/internal/span"
	"fpgapart/internal/trace"
)

// counts are the engine's event counts for a set of jobs, read either
// from the trace.Sink hook (batch jobs) or from a /metrics scrape of
// the server that ran them (served jobs; its bridge derives the same
// series from the same events).
type counts struct {
	carves, rejTerminals, rejOther int64
	fmMoves                        int64 // serial and parallel FM passes together
	replicas, rollbacks            int64
	infeasible                     int64 // folded attempts without a feasible solution
	parRounds, parProposals        int64
	parCommits, parStale           int64
}

// countSink is a trace.Sink that tallies counts; safe for concurrent use.
type countSink struct {
	mu sync.Mutex
	c  counts
}

func (s *countSink) Event(e trace.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := &s.c
	switch e.Kind {
	case trace.KindCarveAccepted:
		c.carves++
		c.replicas += int64(e.Replicas)
		c.rollbacks += int64(e.Rollbacks)
	case trace.KindCarveRejected:
		if e.Reason == "terminals" {
			c.rejTerminals++
		} else {
			c.rejOther++
		}
		c.replicas += int64(e.Replicas)
		c.rollbacks += int64(e.Rollbacks)
	case trace.KindFMPass:
		c.fmMoves += int64(e.Moves)
	case trace.KindSolution:
		if !e.Feasible {
			c.infeasible++
		}
	case trace.KindParRound:
		c.parRounds++
		c.parProposals += int64(e.Proposals)
		c.parCommits += int64(e.Commits)
		c.parStale += int64(e.Stale)
	}
}

func (s *countSink) snapshot() counts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c
}

// scrape is a parsed Prometheus text exposition: series (name plus
// rendered labels, e.g. `fpgapart_carve_rejected_total{reason="fm"}`)
// to value.
type scrape map[string]float64

func parseScrape(r io.Reader) (scrape, error) {
	s := make(scrape)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, err
		}
		s[line[:i]] = v
	}
	return s, sc.Err()
}

// sum adds every series of one metric name, whatever its labels.
func (s scrape) sum(name string) float64 {
	t := 0.0
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// histQuantile estimates the q-quantile of a histogram series from its
// cumulative buckets, interpolating linearly inside the bucket that
// holds it. labels selects the series, e.g. `endpoint="/v1/partition"`.
func (s scrape) histQuantile(name, labels string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + "_bucket{" + labels + `,le="`
	for k, v := range s {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(k[len(prefix):], `"}`), 64)
		if err != nil { // "+Inf" parses; anything else is not a bucket
			continue
		}
		bs = append(bs, bucket{le, v})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].n
	lo, below := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if math.IsInf(b.le, 1) { // the best estimate is the last finite bound
				return lo
			}
			return lo + (b.le-lo)*ratio(rank-below, b.n-below)
		}
		lo, below = b.le, b.n
	}
	return lo
}

func (s scrape) counts() counts {
	rejected := s.sum("fpgapart_carve_rejected_total")
	terminals := s[`fpgapart_carve_rejected_total{reason="terminals"}`]
	return counts{
		carves:       int64(s.sum("fpgapart_carve_accepted_total")),
		rejTerminals: int64(terminals),
		rejOther:     int64(rejected - terminals),
		fmMoves:      int64(s.sum("fpgapart_fm_moves_total")),
		replicas:     int64(s.sum("fpgapart_replicas_total")),
		rollbacks:    int64(s.sum("fpgapart_rollbacks_total")),
		infeasible:   int64(s[`fpgapart_solutions_total{feasible="false"}`]),
		parRounds:    int64(s.sum("fpgapart_parfm_rounds_total")),
		parProposals: int64(s.sum("fpgapart_parfm_proposals_total")),
		parCommits:   int64(s.sum("fpgapart_parfm_commits_total")),
		parStale:     int64(s.sum("fpgapart_parfm_stale_total")),
	}
}

// spanAgg aggregates the spans of one name.
type spanAgg struct {
	count     int
	dur, self time.Duration
	durs      []time.Duration
}

// spanTree is the analysed span tree of a set of traced jobs.
type spanTree struct {
	byName  map[string]*spanAgg
	spans   int
	dropped int
	// orphans counts attempt spans whose ancestry does not reach the
	// benchmark's own root span of their job.
	orphans int
	// queueWaits are, per served job, the time from the client's
	// submission to the start of the server's job span.
	queueWaits []time.Duration
}

func newSpanTree() *spanTree { return &spanTree{byName: make(map[string]*spanAgg)} }

// add analyses one job's trace. root is the benchmark's span around
// the job; self time of a span is its duration minus the part of it
// its children cover.
func (t *spanTree) add(spans []span.Span, dropped int, root span.ID) {
	t.spans += len(spans)
	t.dropped += dropped
	byID := make(map[span.ID]*span.Span, len(spans))
	children := make(map[span.ID][]*span.Span, len(spans))
	for i := range spans {
		sp := &spans[i]
		byID[sp.ID] = sp
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	for i := range spans {
		sp := &spans[i]
		a := t.byName[sp.Name]
		if a == nil {
			a = &spanAgg{}
			t.byName[sp.Name] = a
		}
		a.count++
		a.dur += sp.Dur
		a.self += sp.Dur - covered(sp, children[sp.ID])
		a.durs = append(a.durs, sp.Dur)
		switch sp.Name {
		case "attempt":
			if !descends(sp, root, byID) {
				t.orphans++
			}
		case "job":
			if r := byID[root]; r != nil && sp.Parent == root {
				t.queueWaits = append(t.queueWaits, sp.Start.Sub(r.Start))
			}
		}
	}
}

// covered is the length of the union of the children's intervals
// clipped to the parent's; parallel children are not double counted.
func covered(parent *span.Span, kids []*span.Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b time.Time }
	end := parent.Start.Add(parent.Dur)
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.Start.Add(k.Dur)
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

func descends(sp *span.Span, root span.ID, byID map[span.ID]*span.Span) bool {
	for depth := 0; sp != nil && depth < 64; depth++ {
		if sp.Parent == root {
			return true
		}
		sp = byID[sp.Parent]
	}
	return false
}

func (t *spanTree) agg(name string) spanAgg {
	if a := t.byName[name]; a != nil {
		return *a
	}
	return spanAgg{}
}
