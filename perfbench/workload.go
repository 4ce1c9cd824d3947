package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"

	"fpgapart/internal/bench"
	"fpgapart/internal/core"
	"fpgapart/internal/hypergraph"
	"fpgapart/internal/netlist"
	"fpgapart/internal/techmap"
	"fpgapart/internal/topology"
)

// jobSpec is one partition job of a workload's job set: the circuit
// source text exactly as a user would hand it over, and the options.
type jobSpec struct {
	Name          string
	Text          string
	GNL           bool   // Text is a gate-level netlist, mapped before partitioning
	Board         string // inline board spec; "" keeps the flat objective
	Solutions     int
	Seed          int64
	Multilevel    bool
	RefineWorkers int
	Workers       int // search pool size; 0 = one per CPU
}

// options returns the partition options the job runs with.
func (j jobSpec) options() (core.Options, error) {
	o := core.Options{
		Solutions: j.Solutions, Seed: j.Seed, Multilevel: j.Multilevel,
		RefineWorkers: j.RefineWorkers, Workers: j.Workers,
	}
	if j.Board != "" {
		b, err := topology.ParseSpec(j.Board)
		if err != nil {
			return o, fmt.Errorf("%s: board: %w", j.Name, err)
		}
		o.Board = b
	}
	return o, nil
}

// parse turns the job's text into the mapped circuit the partitioner
// sees, the way the server does: gate-level input is mapped with the
// job seed.
func (j jobSpec) parse() (*hypergraph.Graph, error) {
	if !j.GNL {
		return hypergraph.ReadLimits(strings.NewReader(j.Text), hypergraph.Limits{})
	}
	n, err := netlist.ReadLimits(strings.NewReader(j.Text), netlist.Limits{})
	if err != nil {
		return nil, err
	}
	m, err := techmap.Map(n, techmap.Options{Seed: j.Seed})
	if err != nil {
		return nil, err
	}
	return m.Graph, nil
}

// pool is the number of search goroutines the job keeps busy.
func (j jobSpec) pool() int {
	w := j.Workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return min(w, j.Solutions)
}

// workload is one named set of inputs. Each keeps the busy goroutines
// at or below two, the CPU count of the host the bounds were set on.
type workload struct {
	Name   string
	Why    string
	Served bool // jobs go over HTTP to an in-process server
	// Clients is the number of closed-loop clients, each with one
	// connection: a client sends its next job when the previous
	// result arrives.
	Clients int
	// MinJobs is the least number of jobs an end-to-end run measures,
	// so the reported p90 has at least ten samples beyond it.
	MinJobs int
	jobs    func(seed int64) ([]jobSpec, error)
}

var workloads = []workload{
	{
		Name:    "rent-flat",
		Why:     "carve hot path: 4k-cell Rent circuits, flat carve engine with serial FM; most carve tries are rejected for terminals",
		Clients: 1,
		jobs: func(seed int64) ([]jobSpec, error) {
			return rentJobs(seed, 6, 4000, func(j *jobSpec) {})
		},
	},
	{
		Name:    "rent-vcycle",
		Why:     "1k-cell Rent circuits with the multilevel V-cycle and 2 parfm workers: parfm passes dominate and the V-cycle is rebuilt per carve",
		Clients: 1,
		jobs: func(seed int64) ([]jobSpec, error) {
			return rentJobs(seed, 100, 1000, func(j *jobSpec) { j.Multilevel, j.RefineWorkers = true, 2 })
		},
	},
	{
		Name:    "suite-served",
		Why:     "paper's nine circuits plus gate-level and 2x4-mesh jobs, 2 closed-loop clients on a 1-worker server with a durable store",
		Served:  true,
		Clients: 2,
		MinJobs: 100,
		jobs:    suiteJobs,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// rentJobs builds a repetition of Rent's-rule circuits (p = 0.65, the
// generator's 30/20 primary I/O), each partitioned with one solution
// on one search worker. One circuit's k and run time depend on its seed
// by several percent with the flat engine and by up to a third with the
// V-cycle, so a repetition holds several circuits to average that out.
func rentJobs(seed int64, circuits, cells int, tune func(*jobSpec)) ([]jobSpec, error) {
	var jobs []jobSpec
	for i := 0; i < circuits; i++ {
		s := seed*int64(circuits) + int64(i)
		g, err := bench.GenerateRent(bench.RentParams{
			Cells: cells, PrimaryIn: 30, PrimaryOut: 20, Rent: 0.65, Seed: s,
		})
		if err != nil {
			return nil, err
		}
		var b bytes.Buffer
		if err := hypergraph.Write(&b, g); err != nil {
			return nil, err
		}
		j := jobSpec{Name: g.Name, Text: b.String(), Solutions: 1, Seed: s, Workers: 1}
		tune(&j)
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// Served job mix, per repetition. Each suite circuit runs at five
// search seeds: at four attempts one circuit's k can jump by a third
// between seeds (c5315: 34 or 47), and neither the mix's sums nor its
// latency quantiles may follow a few seeds' luck. Board jobs get more
// attempts and twice the default link capacity because many single
// attempts of s13207 and s15850 need a ninth slot or overload a 64-net
// link; at 12 attempts every seed tried found a feasible placement.
const (
	suiteSeeds     = 5
	suiteSolutions = 4
	boardSolutions = 12
	suiteBoard     = "mesh:2x4:128"
)

// boardCircuits are the suite circuits whose k fits 8 slots.
var boardCircuits = map[string]bool{"c6288": true, "s9234": true, "s13207": true, "s15850": true}

// gnlGates are the sizes of the random gate-level netlists in the mix.
var gnlGates = []int{1000, 2000, 3000}

// suiteJobs builds the served mix: the paper's nine circuits (fixed by
// Tables II–VII) as CLB text, the four whose solutions fit the eight
// slots of a 2x4 mesh once more with that board, and three seeded
// gate-level netlists. The seed picks every job's search seed and the
// netlists; the submission order is fixed, so the two clients' jobs
// pair up the same way at every seed.
func suiteJobs(seed int64) ([]jobSpec, error) {
	rng := rand.New(rand.NewSource(seed))
	jobSeed := func() int64 { return rng.Int63n(1<<31) + 1 }
	var clb, board []jobSpec
	for _, c := range bench.Suite() {
		g, err := bench.Generate(c.Params)
		if err != nil {
			return nil, err
		}
		var b bytes.Buffer
		if err := hypergraph.Write(&b, g); err != nil {
			return nil, err
		}
		for i := 0; i < suiteSeeds; i++ {
			clb = append(clb, jobSpec{Name: c.Name, Text: b.String(), Solutions: suiteSolutions, Seed: jobSeed()})
		}
		if boardCircuits[c.Name] {
			board = append(board, jobSpec{Name: c.Name + "@" + suiteBoard, Text: b.String(), Board: suiteBoard,
				Solutions: boardSolutions, Seed: jobSeed()})
		}
	}
	var gnl []jobSpec
	for _, gates := range gnlGates {
		s := jobSeed()
		n, err := netlist.Random(netlist.RandomParams{
			Name: fmt.Sprintf("gnl%d", gates), Gates: gates, Inputs: 30, Outputs: 20, DffFrac: 0.1, Seed: s,
		})
		if err != nil {
			return nil, err
		}
		var b bytes.Buffer
		if err := netlist.Write(&b, n); err != nil {
			return nil, err
		}
		gnl = append(gnl, jobSpec{Name: n.Name, Text: b.String(), GNL: true, Solutions: suiteSolutions, Seed: s})
	}
	// Spread the board and gate-level jobs evenly through the CLB jobs.
	extra := append(board, gnl...)
	var jobs []jobSpec
	for i, j := range clb {
		jobs = append(jobs, j)
		if (i+1)*len(extra)/len(clb) > i*len(extra)/len(clb) {
			jobs = append(jobs, extra[i*len(extra)/len(clb)])
		}
	}
	return jobs, nil
}
