package span

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Node is one span with its resolved children, the JSON tree form
// served by GET /debug/trace/{job}.
type Node struct {
	Span
	Children []*Node `json:"children,omitempty"`
}

// Tree links spans into their forest: spans whose parent is absent
// (or zero) become roots. Roots and children are ordered by start
// time, ID-tiebroken, so the rendering is stable under the
// nondeterministic recording order of a parallel search.
func Tree(spans []Span) []*Node {
	nodes := make([]*Node, len(spans))
	byID := make(map[ID]*Node, len(spans))
	for i := range spans {
		nodes[i] = &Node{Span: spans[i]}
		byID[spans[i].ID] = nodes[i]
	}
	var roots []*Node
	for _, n := range nodes {
		if p := byID[n.Parent]; p != nil && n.Parent != n.ID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	order := func(ns []*Node) {
		sort.SliceStable(ns, func(i, j int) bool {
			if !ns[i].Start.Equal(ns[j].Start) {
				return ns[i].Start.Before(ns[j].Start)
			}
			return ns[i].ID < ns[j].ID
		})
	}
	order(roots)
	for _, n := range nodes {
		order(n.Children)
	}
	return roots
}

// ChromeEvent is one entry of the Chrome trace_event format
// (loadable in Perfetto / chrome://tracing). Only the duration
// ("B"/"E") and metadata ("M") phases are emitted.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace is the JSON-object container form of the format.
type ChromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	// OtherData is the format's free-form metadata object.
	OtherData ChromeMeta `json:"otherData"`
}

// ChromeMeta is the otherData metadata of an exported timeline.
type ChromeMeta struct {
	// DroppedSpans counts the spans the collector discarded once the
	// trace reached its MaxSpansPerTrace bound; non-zero means the
	// timeline is incomplete.
	DroppedSpans int `json:"dropped_spans"`
}

// chromeTID maps a span's attempt label to its timeline row: attempt
// -1 (engine-level work) renders on row 0, attempt i on row i+1.
func chromeTID(attempt int) int {
	if attempt < 0 {
		return 0
	}
	return attempt + 1
}

// BuildChromeTrace converts spans into Chrome trace_event form. One
// pid per process (first-seen order), one tid per search attempt.
// B/E pairs are emitted by a recursive walk of the span tree —
// parent B, children, parent E — so every (pid,tid) stream is
// balanced and properly nested by construction.
func BuildChromeTrace(spans []Span) ChromeTrace {
	ct := ChromeTrace{DisplayTimeUnit: "ms", TraceEvents: []ChromeEvent{}}
	pids := map[string]int{}
	type key struct {
		pid, tid int
	}
	named := map[key]bool{}
	pidOf := func(process string) int {
		p, ok := pids[process]
		if !ok {
			p = len(pids) + 1
			pids[process] = p
			ct.TraceEvents = append(ct.TraceEvents, ChromeEvent{
				Name: "process_name", Ph: "M", PID: p,
				Args: map[string]any{"name": process},
			})
		}
		return p
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		pid := pidOf(n.Process)
		tid := chromeTID(n.Attempt)
		if k := (key{pid, tid}); !named[k] {
			named[k] = true
			tn := "engine"
			if n.Attempt >= 0 {
				tn = fmt.Sprintf("attempt %d", n.Attempt)
			}
			ct.TraceEvents = append(ct.TraceEvents, ChromeEvent{
				Name: "thread_name", Ph: "M", PID: pid, TID: tid,
				Args: map[string]any{"name": tn},
			})
		}
		start := n.Start.UnixNano() / 1e3
		args := map[string]any{"id": n.ID.String()}
		if n.Parent != 0 {
			args["parent"] = n.Parent.String()
		}
		if n.Detail != "" {
			args["detail"] = n.Detail
		}
		ct.TraceEvents = append(ct.TraceEvents, ChromeEvent{
			Name: n.Name, Cat: "span", Ph: "B", TS: start,
			PID: pid, TID: tid, Args: args,
		})
		for _, c := range n.Children {
			walk(c)
		}
		end := start + n.Dur.Nanoseconds()/1e3
		if end < start {
			end = start
		}
		ct.TraceEvents = append(ct.TraceEvents, ChromeEvent{
			Name: n.Name, Cat: "span", Ph: "E", TS: end,
			PID: pid, TID: tid,
		})
	}
	for _, root := range Tree(spans) {
		walk(root)
	}
	return ct
}

// WriteChromeTrace writes spans as Chrome trace_event JSON, recording
// dropped — the collector's overflow count for the trace (see
// Collector.Trace) — as otherData.dropped_spans.
func WriteChromeTrace(w io.Writer, spans []Span, dropped int) error {
	ct := BuildChromeTrace(spans)
	ct.OtherData.DroppedSpans = dropped
	return json.NewEncoder(w).Encode(ct)
}
