package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// compareMain reads two result sets (files of run records, such as
// --out writes or captured standard output) and prints, per workload
// and metric, each side's quartiles, the pair wins of the new side over
// runs at the same seed, and a verdict.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { fmt.Fprintln(stderr, "usage: perfbench compare <parent-results> <change-results>") }
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	var sets [2]map[string]*series
	for i, path := range fs.Args() {
		s, skipped, err := readResultSet(path)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench compare:", err)
			return 2
		}
		if skipped > 0 {
			fmt.Fprintf(stderr, "perfbench compare: %s: skipped %d records with failed checks\n", path, skipped)
		}
		sets[i] = s
	}
	keys := make([]string, 0, len(sets[0]))
	for k := range sets[0] {
		if sets[1][k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	fmt.Fprintf(stdout, "%-12s %-30s %-8s %-6s %10s %10s %10s  %10s %10s %10s  %7s  %s\n",
		"workload", "metric", "unit", "better", "old q1", "old med", "old q3", "new q1", "new med", "new q3", "wins", "verdict")
	for _, k := range keys {
		o, n := sets[0][k], sets[1][k]
		q1o, mo, q3o := quartiles(o.all())
		q1n, mn, q3n := quartiles(n.all())
		v, wins, pairs := judge(o, n)
		fmt.Fprintf(stdout, "%-12s %-30s %-8s %-6s %10.4g %10.4g %10.4g  %10.4g %10.4g %10.4g  %3d/%-3d  %s\n",
			o.workload, o.metric, o.unit, o.better, q1o, mo, q3o, q1n, mn, q3n, wins, pairs, v)
	}
	return 0
}

// series is one workload × metric of a result set, by seed.
type series struct {
	workload, metric, unit, better string
	bound                          float64
	bySeed                         map[int64][]float64
}

func (s *series) all() []float64 {
	var xs []float64
	for _, v := range s.bySeed {
		xs = append(xs, v...)
	}
	return xs
}

func readResultSet(path string) (map[string]*series, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	out := make(map[string]*series)
	skipped := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var rec recordJSON
		if json.Unmarshal([]byte(line), &rec) != nil || rec.Workload == "" {
			continue
		}
		if !rec.Correct {
			skipped++
			continue
		}
		for name, m := range rec.Metrics {
			k := rec.Workload + "\x00" + name
			s := out[k]
			if s == nil {
				s = &series{workload: rec.Workload, metric: name, unit: m.Unit, better: m.Better, bySeed: map[int64][]float64{}}
				if m.Bound != nil {
					s.bound = *m.Bound
				}
				out[k] = s
			}
			s.bySeed[rec.Seed] = append(s.bySeed[rec.Seed], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	return out, skipped, nil
}

// judge gives the verdict on the change (n) against the parent (o):
//   - "unresolved" when the parent's own quartile spread exceeds the
//     bound, unless every change run beats every parent run;
//   - "better" when the change wins at least nine tenths of the pairs
//     run at the same seed and the medians differ by more than the
//     parent's quartile spread;
//   - "worse" when the change's median is worse than the parent's by
//     more than the bound (a share of the parent's median);
//   - "within bound" otherwise.
//
// Per-layer metrics have no bound, so any worsening of an exactly
// repeating count is "worse" and any spread is "unresolved".
func judge(o, n *series) (verdict string, wins, pairs int) {
	sign := 1.0
	if o.better == "lower" {
		sign = -1
	}
	for seed, ov := range o.bySeed {
		nv, ok := n.bySeed[seed]
		if !ok {
			continue
		}
		pairs++
		if sign*(median(nv)-median(ov)) > 0 {
			wins++
		}
	}
	old, cur := o.all(), n.all()
	q1, mo, q3 := quartiles(old)
	_, mn, _ := quartiles(cur)
	iqr := q3 - q1
	spread := ratio(iqr, math.Abs(mo))
	if mo == 0 && iqr > 0 {
		spread = math.Inf(1)
	}
	gain := sign * (mn - mo)
	allBetter := len(old) > 0 && len(cur) > 0
	for _, a := range cur {
		for _, b := range old {
			if sign*(a-b) <= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case spread > o.bound:
		if allBetter {
			return "better", wins, pairs
		}
		return "unresolved", wins, pairs
	case pairs > 0 && wins*10 >= 9*pairs && gain > iqr:
		return "better", wins, pairs
	case -gain > o.bound*math.Abs(mo):
		return "worse", wins, pairs
	default:
		return "within bound", wins, pairs
	}
}
