package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"repro/internal/cliutil"
	"repro/internal/service"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// The paper's four programs (Table 1) on Table 2's three machines: every
// request of every workload solves one of these 12 combinations.
var (
	programKeys = []string{"NE", "GJ", "FFT", "MM"}
	topoSpecs   = []string{"hypercube:3", "bus:8", "ring:9"}
)

// problem is one scheduling instance: a program graph on a machine with
// the paper's default communication parameters.
type problem struct {
	graph     *taskgraph.Graph // never mutated; delta chains edit clones
	graphJSON []byte
	spec      string
	topo      *topology.Topology
	comm      topology.CommParams
}

// newProblems builds the 12 combinations, program-major.
func newProblems() ([]*problem, error) {
	var out []*problem
	for _, key := range programKeys {
		g, err := cliutil.BuildProgram(key)
		if err != nil {
			return nil, err
		}
		raw, err := json.Marshal(g)
		if err != nil {
			return nil, fmt.Errorf("encode %s: %w", key, err)
		}
		for _, spec := range topoSpecs {
			topo, err := cliutil.ParseTopology(spec)
			if err != nil {
				return nil, err
			}
			out = append(out, &problem{graph: g, graphJSON: raw, spec: spec, topo: topo,
				comm: topology.DefaultCommParams()})
		}
	}
	return out, nil
}

// Streams keep the independent draws of one seed apart: the SA seeds of
// warm-up, cold, hot and base requests never coincide, so no timed
// request can hit a key another phase solved.
const (
	streamWarmup uint64 = iota + 1
	streamCold
	streamHot
	streamPick
	streamBase
	streamEdit
	streamMixed
	streamArrival
)

// draw returns value i of stream s under seed. Each request's inputs are
// a function of (seed, stream, index) alone, so they do not depend on
// which client sends the request or when.
func draw(seed int64, s uint64, i int) uint64 {
	return splitmix(splitmix(splitmix(uint64(seed))^s) ^ uint64(i))
}

// splitmix is the SplitMix64 output function.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a draw onto [0, 1).
func unit(v uint64) float64 { return float64(v>>11) / (1 << 53) }

// solveSeed is the non-negative SA seed of draw i of stream s.
func solveSeed(seed int64, s uint64, i int) int64 { return int64(draw(seed, s, i) >> 1) }

// arrivalGap is the Poisson inter-arrival time before open-loop arrival
// n, in seconds.
func arrivalGap(seed int64, rate float64, n int) float64 {
	return -math.Log(1-unit(draw(seed, streamArrival, n))) / rate
}

// scheduleBody is the /v1/schedule body that solves p with SA seed s.
func scheduleBody(p *problem, s int64, trace bool) []byte {
	b := make([]byte, 0, len(p.graphJSON)+96)
	b = append(b, `{"graph":`...)
	b = append(b, p.graphJSON...)
	b = append(b, `,"topo":"`...)
	b = append(b, p.spec...)
	b = append(b, `","solver":"sa","seed":`...)
	b = strconv.AppendInt(b, s, 10)
	if trace {
		b = append(b, `,"trace":true`...)
	}
	return append(b, '}')
}

// deltaBody is the /v1/schedule/delta body that sets one task's load on
// the answer stored under base.
func deltaBody(base string, task int, load float64, trace bool) []byte {
	b, err := json.Marshal(service.DeltaRequest{
		Base:  base,
		Edits: []service.DeltaEdit{{Op: "set_load", Task: task, Load: &load}},
		Trace: trace,
	})
	if err != nil {
		panic(err) // a fixed struct of strings and finite numbers always encodes
	}
	return b
}
