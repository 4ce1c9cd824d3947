// Command perfbench is the repository's whole-job benchmark. It
// generates a workload's inputs from a seed, runs complete partition
// jobs through the public entry points — hypergraph.ReadLimits plus
// core.PartitionContext for batch jobs, server.New over HTTP for
// served jobs — checks every result from the outside, and prints the
// workload's metrics by name with unit and direction.
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it replays the same jobs untraced and then traced and
// reports per-layer metrics, taken only from outside the program:
// timed calls into layer functions, counts from the trace.Sink hook or
// the server's /metrics, and the span tree under the benchmark's own
// root span of each job.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is the
// run's record (host, seed, input sizes, every metric with unit,
// direction and bound), which --out also appends to a result-set file.
// A failed check exits 1 after printing; a run that cannot be carried
// out exits 2 without a result.
//
//	go run . --workload rent-flat --seed 1 --seconds 25 --trace 0
//	go run . compare old.jsonl new.jsonl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// runLimit bounds one run's jobs; a run must finish within 180 s.
const runLimit = 150 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	wl := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	secs := fs.Int("seconds", 25, "measurement window in seconds (whole repetitions of the job set, at least one)")
	traced := fs.Int("trace", 0, "0 = end-to-end metrics of an untraced run; 1 = per-layer metrics of a traced run")
	out := fs.String("out", "", "also append the run's record to this result-set file (JSONL)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *secs < 1 || *traced < 0 || *traced > 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: need --seconds >= 1, --trace 0 or 1 and no positional arguments")
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	rep, err := run(ctx, config{workload: *wl, seed: *seed, seconds: *secs, trace: *traced == 1})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	rec, err := json.Marshal(rep.record())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *out != "" {
		if err := appendLine(*out, rec); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
	}
	for _, e := range rep.Errors {
		fmt.Fprintln(stderr, "perfbench: check failed:", e)
	}
	for _, m := range rep.Metrics {
		line := fmt.Sprintf("%-12s %-30s %14.6g %-8s (%s is better)", rep.Workload, m.Name, m.Value, m.Unit, m.Better)
		if m.Moves != "" {
			line += " -> " + m.Moves
		}
		fmt.Fprintln(stdout, line)
	}
	fmt.Fprintf(stdout, "%s\n", rec)
	res, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", res)
	if !rep.correct() {
		return 1
	}
	return 0
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type valueJSON struct {
	Value  float64  `json:"value"`
	Unit   string   `json:"unit"`
	Better string   `json:"better,omitempty"`
	Bound  *float64 `json:"bound,omitempty"`
	Moves  string   `json:"moves,omitempty"`
}

// recordJSON is one run in a result set.
type recordJSON struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Trace     bool                 `json:"trace"`
	Host      hostInfo             `json:"host"`
	Inputs    []inputInfo          `json:"inputs"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Errors    []string             `json:"errors,omitempty"`
	Metrics   map[string]valueJSON `json:"metrics"`
}

func (r *report) record() recordJSON {
	rec := recordJSON{
		Workload: r.Workload, Seed: r.Seed, Trace: r.Trace, Host: r.Host, Inputs: r.Inputs,
		Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Errors: r.Errors,
		Metrics: make(map[string]valueJSON, len(r.Metrics)),
	}
	for _, m := range r.Metrics {
		v := valueJSON{Value: m.Value, Unit: m.Unit, Better: m.Better, Moves: m.Moves}
		if m.Bound > 0 {
			b := m.Bound
			v.Bound = &b
		}
		rec.Metrics[m.Name] = v
	}
	return rec
}

// resultJSON is the run's last output line.
type resultJSON struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueJSON `json:"metrics"`
}

func (r *report) result() resultJSON {
	res := resultJSON{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]valueJSON, len(r.Metrics))}
	for _, m := range r.Metrics {
		res.Metrics[m.Name] = valueJSON{Value: m.Value, Unit: m.Unit}
	}
	return res
}
