// Command spanview renders a text flame summary of a span timeline
// exported by kpart -trace-out (Chrome trace_event JSON, the format
// Perfetto and chrome://tracing load).
//
// Usage:
//
//	spanview [-top 15] trace.json
//
// The summary aggregates spans by (process, name) and ranks them by
// total self-time — the time spent in a span minus the time spent in
// its direct children — which is where a timeline's width actually
// goes. spanview also validates the file: a missing container field,
// an E event without a matching B, or an unbalanced stream is a
// non-zero exit, so CI can use it as a format checker. When the
// exporter's collector dropped spans (otherData.dropped_spans > 0),
// spanview says so: the file is still well-formed, but the timeline
// and its wall time are partial.
//
// Exit codes: 0 = success; 1 = usage or I/O error; 2 = the file is
// not well-formed Chrome trace JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"fpgapart/internal/report"
	"fpgapart/internal/span"
)

func main() {
	top := flag.Int("top", 15, "rows in the flame summary (0 = all)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: spanview [-top 15] <trace.json>")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(1)
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "spanview:", err)
		os.Exit(1)
	}
	if err := render(os.Stdout, data, *top); err != nil {
		fmt.Fprintf(os.Stderr, "spanview: %s: %v\n", flag.Arg(0), err)
		os.Exit(2)
	}
}

// row is one (process, span name) aggregate of the flame summary.
type row struct {
	process, name string
	count         int
	self, total   time.Duration
}

// frame is one open B event on a (pid, tid) stack.
type frame struct {
	name     string
	start    int64 // µs
	childDur int64 // µs spent in direct children
}

// render parses, validates and summarizes one Chrome trace file.
func render(w io.Writer, data []byte, top int) error {
	var ct span.ChromeTrace
	if err := json.Unmarshal(data, &ct); err != nil {
		return fmt.Errorf("not Chrome trace JSON: %w", err)
	}
	if ct.DisplayTimeUnit == "" {
		return fmt.Errorf("missing displayTimeUnit (not the JSON-object container form)")
	}
	if len(ct.TraceEvents) == 0 {
		return fmt.Errorf("no traceEvents")
	}

	type lane struct{ pid, tid int }
	stacks := make(map[lane][]frame)
	procs := make(map[int]string)
	rows := make(map[[2]string]*row)
	spans := 0
	var tmin, tmax int64
	seenTS := false
	for i, ev := range ct.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				name, _ := ev.Args["name"].(string)
				procs[ev.PID] = name
			}
		case "B":
			stacks[lane{ev.PID, ev.TID}] = append(stacks[lane{ev.PID, ev.TID}], frame{name: ev.Name, start: ev.TS})
			if !seenTS || ev.TS < tmin {
				tmin = ev.TS
			}
			seenTS = true
		case "E":
			k := lane{ev.PID, ev.TID}
			st := stacks[k]
			if len(st) == 0 {
				return fmt.Errorf("event %d: E %q on pid=%d tid=%d with no open B", i, ev.Name, ev.PID, ev.TID)
			}
			f := st[len(st)-1]
			stacks[k] = st[:len(st)-1]
			if ev.Name != "" && ev.Name != f.name {
				return fmt.Errorf("event %d: E %q does not match open B %q", i, ev.Name, f.name)
			}
			dur := ev.TS - f.start
			if dur < 0 {
				return fmt.Errorf("event %d: E %q ends before its B", i, ev.Name)
			}
			if len(stacks[k]) > 0 {
				stacks[k][len(stacks[k])-1].childDur += dur
			}
			if ev.TS > tmax {
				tmax = ev.TS
			}
			proc := procs[ev.PID]
			if proc == "" {
				proc = fmt.Sprintf("pid %d", ev.PID)
			}
			rk := [2]string{proc, f.name}
			r := rows[rk]
			if r == nil {
				r = &row{process: proc, name: f.name}
				rows[rk] = r
			}
			r.count++
			r.total += time.Duration(dur) * time.Microsecond
			r.self += time.Duration(dur-f.childDur) * time.Microsecond
			spans++
		default:
			return fmt.Errorf("event %d: unsupported phase %q", i, ev.Ph)
		}
	}
	for k, st := range stacks {
		if len(st) > 0 {
			return fmt.Errorf("pid=%d tid=%d: %d B event(s) never closed (first: %q)", k.pid, k.tid, len(st), st[0].name)
		}
	}
	if spans == 0 {
		return fmt.Errorf("no B/E span pairs")
	}

	ordered := make([]*row, 0, len(rows))
	for _, r := range rows {
		ordered = append(ordered, r)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].self != ordered[j].self {
			return ordered[i].self > ordered[j].self
		}
		if ordered[i].process != ordered[j].process {
			return ordered[i].process < ordered[j].process
		}
		return ordered[i].name < ordered[j].name
	})
	shown := len(ordered)
	if top > 0 && top < shown {
		shown = top
	}

	fmt.Fprintf(w, "trace: %d process(es), %d spans, wall %s\n",
		len(procs), spans, time.Duration(tmax-tmin)*time.Microsecond)
	if n := ct.OtherData.DroppedSpans; n > 0 {
		fmt.Fprintf(w, "dropped %d spans — timeline incomplete\n", n)
	}
	t := report.NewTable("", "Self", "Total", "Count", "Process", "Span")
	for _, r := range ordered[:shown] {
		t.Row(r.self.Round(time.Microsecond).String(), r.total.Round(time.Microsecond).String(), r.count, r.process, r.name)
	}
	t.Render(w)
	if shown < len(ordered) {
		fmt.Fprintf(w, "(%d more span name(s); raise -top to see them)\n", len(ordered)-shown)
	}
	return nil
}
