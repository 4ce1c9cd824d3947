package main

import (
	"encoding/json"
	"fmt"

	"fpgapart/internal/core"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/library"
	"fpgapart/internal/server"
	"fpgapart/internal/topology"
	"fpgapart/internal/verify"
)

// summary is the user-visible outcome of one job, in the same shape
// whether it came from core.PartitionContext or from the server's
// JSON. Two runs of a job at one seed must give byte-identical
// summaries.
type summary struct {
	K               int           `json:"k"`
	DeviceCost      float64       `json:"device_cost"`
	CLBUtil         float64       `json:"clb_util"`
	IOBUtil         float64       `json:"iob_util"`
	ReplicatedCells int           `json:"replicated_cells"`
	SourceCells     int           `json:"source_cells"`
	Feasible        int           `json:"feasible"`
	Failed          int           `json:"failed"`
	Stopped         string        `json:"stopped"`
	Degraded        bool          `json:"degraded"`
	TopoCost        *int          `json:"topo_cost"`
	Parts           []partSummary `json:"parts"`
}

type partSummary struct {
	Device    string `json:"device"`
	CLBs      int    `json:"clbs"`
	Terminals int    `json:"terminals"`
	Cells     int    `json:"cells"`
	Replicas  int    `json:"replicas"`
}

func (s summary) key() string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // a plain struct of numbers and strings always marshals
	}
	return string(b)
}

func summarize(res core.Result) summary {
	s := summary{
		K: res.Summary.K(), DeviceCost: res.Summary.DeviceCost(),
		CLBUtil: res.Summary.AvgCLBUtil(), IOBUtil: res.Summary.AvgIOBUtil(),
		ReplicatedCells: res.Summary.ReplicatedCells(), SourceCells: res.SourceCells,
		Feasible: res.Feasible, Failed: res.Failed, Stopped: res.Stopped, Degraded: res.Degraded,
	}
	if res.Summary.HasTopo {
		t := res.Summary.TopoCost
		s.TopoCost = &t
	}
	for _, p := range res.Parts {
		s.Parts = append(s.Parts, partSummary{Device: p.Device.Name, CLBs: p.Graph.TotalArea(),
			Terminals: p.Graph.NumTerminals(), Cells: p.Graph.NumCells(), Replicas: p.Replicas})
	}
	return s
}

func summarizeServed(r *server.JobResult) summary {
	s := summary{
		K: r.K, DeviceCost: r.DeviceCost, CLBUtil: r.AvgCLBUtil, IOBUtil: r.AvgIOBUtil,
		ReplicatedCells: r.ReplicatedCells, SourceCells: r.SourceCells,
		Feasible: r.Feasible, Failed: r.Failed, Stopped: r.Stopped, Degraded: r.Degraded,
		TopoCost: r.TopoCost,
	}
	for _, p := range r.Parts {
		s.Parts = append(s.Parts, partSummary{Device: p.Device, CLBs: p.CLBs,
			Terminals: p.Terminals, Cells: p.Cells, Replicas: p.Replicas})
	}
	return s
}

// checkResult is the outside-in correctness gate for one job: the
// full partition verifier against the source circuit, the routing
// post-check on the job's board, the Eq. 1 cost recomputed from the
// library's prices, and the interconnect recomputed from the parts.
// It returns the job's hop-weighted interconnect: on the board for
// board jobs, otherwise on a full crossbar, where a net spanning λ
// devices costs λ−1 hops.
func checkResult(src *hypergraph.Graph, res core.Result, board *topology.Board, reported summary) (int, error) {
	if err := res.Verify(src); err != nil {
		return 0, fmt.Errorf("verify: %w", err)
	}
	if res.Stopped != "" || res.Degraded {
		return 0, fmt.Errorf("search ended early (stopped=%q degraded=%v)", res.Stopped, res.Degraded)
	}
	lib := library.XC3000()
	parts := make([]*hypergraph.Graph, len(res.Parts))
	cost := 0.0
	for i, p := range res.Parts {
		d, ok := lib.ByName(p.Device.Name)
		if !ok {
			return 0, fmt.Errorf("part %d: device %q is not in the library", i, p.Device.Name)
		}
		cost += d.Price
		parts[i] = p.Graph
	}
	if cost != reported.DeviceCost || cost != res.Summary.DeviceCost() {
		return 0, fmt.Errorf("Eq. 1 cost %v from library prices, reported %v", cost, reported.DeviceCost)
	}
	if reported.K != len(res.Parts) {
		return 0, fmt.Errorf("reported k=%d, result has %d parts", reported.K, len(res.Parts))
	}
	if board == nil {
		return crossbarHops(parts), nil
	}
	if err := verify.Routing(board, parts); err != nil {
		return 0, fmt.Errorf("routing: %w", err)
	}
	hops := boardHops(board, parts)
	if reported.TopoCost == nil || *reported.TopoCost != hops {
		return 0, fmt.Errorf("hop-weighted interconnect %d recomputed on %s, reported %v", hops, board.Name, reported.TopoCost)
	}
	return hops, nil
}

// netSpans maps every net name to the parts it appears in (part i is
// device slot i), in first-seen order.
func netSpans(parts []*hypergraph.Graph) ([]string, map[string][]int) {
	spans := make(map[string][]int)
	var order []string
	for i, p := range parts {
		for ni := range p.Nets {
			name := p.Nets[ni].Name
			s, seen := spans[name]
			if !seen {
				order = append(order, name)
			}
			if len(s) == 0 || s[len(s)-1] != i {
				spans[name] = append(s, i)
			}
		}
	}
	return order, spans
}

func crossbarHops(parts []*hypergraph.Graph) int {
	order, spans := netSpans(parts)
	hops := 0
	for _, n := range order {
		hops += len(spans[n]) - 1
	}
	return hops
}

func boardHops(b *topology.Board, parts []*hypergraph.Graph) int {
	order, spans := netSpans(parts)
	hops := 0
	for _, n := range order {
		var set topology.SlotSet
		for _, slot := range spans[n] {
			set = set.Add(slot)
		}
		hops += b.SpanCost(set)
	}
	return hops
}
