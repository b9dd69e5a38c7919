// Package schedule gives simulated executions a standalone, serializable
// representation and — crucially — an *independent* feasibility checker.
// The checker re-derives the machine constraints (one task per processor
// at a time, precedence, minimum communication latency per equation 4)
// from the model without reusing any simulator code, so a schedule that
// passes both the simulator and the checker is validated twice.
package schedule

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/machsim"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// Entry is one task's placement and timing.
type Entry struct {
	Task   taskgraph.TaskID `json:"task"`
	Proc   int              `json:"proc"`
	Start  float64          `json:"start"`
	Finish float64          `json:"finish"`
}

// Schedule is a complete placed and timed schedule.
type Schedule struct {
	Policy   string  `json:"policy"`
	Makespan float64 `json:"makespan"`
	Entries  []Entry `json:"entries"` // indexed by task ID
}

// FromResult extracts the schedule of a completed simulation.
func FromResult(res *machsim.Result) (*Schedule, error) {
	n := len(res.Finish)
	if n == 0 || len(res.Start) != n || len(res.Proc) != n {
		return nil, fmt.Errorf("schedule: incomplete result (%d/%d/%d fields)",
			len(res.Start), len(res.Finish), len(res.Proc))
	}
	s := &Schedule{Policy: res.Policy, Makespan: res.Makespan, Entries: make([]Entry, n)}
	for i := 0; i < n; i++ {
		if res.Finish[i] < 0 || res.Proc[i] < 0 {
			return nil, fmt.Errorf("schedule: task %d did not complete", i)
		}
		s.Entries[i] = Entry{
			Task:   taskgraph.TaskID(i),
			Proc:   res.Proc[i],
			Start:  res.Start[i],
			Finish: res.Finish[i],
		}
	}
	return s, nil
}

const eps = 1e-9

// Validate checks the schedule against the machine model:
//
//  1. shape: one entry per task, tasks on existing processors, times
//     ordered, duration at least the task load (preemption only stretches);
//  2. exclusivity: compute intervals on one processor never overlap;
//  3. precedence: a consumer starts no earlier than each producer's
//     finish;
//  4. communication: a remotely-fed consumer additionally waits for the
//     send overhead and the store-and-forward transfer of each input
//     message, σ + w·d with w = bits/BW (equation 4's link terms form a
//     lower bound — queueing and routing overheads can only add more);
//  5. makespan: equals the latest finish.
func (s *Schedule) Validate(g *taskgraph.Graph, topo *topology.Topology, comm topology.CommParams) error {
	if g == nil || topo == nil {
		return fmt.Errorf("schedule: nil graph or topology")
	}
	if len(s.Entries) != g.NumTasks() {
		return fmt.Errorf("schedule: %d entries for %d tasks", len(s.Entries), g.NumTasks())
	}
	latest := 0.0
	for i, e := range s.Entries {
		if e.Task != taskgraph.TaskID(i) {
			return fmt.Errorf("schedule: entry %d holds task %d", i, e.Task)
		}
		if e.Proc < 0 || e.Proc >= topo.N() {
			return fmt.Errorf("schedule: task %d on unknown processor %d", i, e.Proc)
		}
		if e.Start < -eps || e.Finish < e.Start-eps {
			return fmt.Errorf("schedule: task %d has times [%g, %g]", i, e.Start, e.Finish)
		}
		if e.Finish-e.Start < g.Load(e.Task)-eps {
			return fmt.Errorf("schedule: task %d runs %g µs, load is %g µs",
				i, e.Finish-e.Start, g.Load(e.Task))
		}
		if e.Finish > latest {
			latest = e.Finish
		}
	}
	if s.Makespan < latest-eps {
		return fmt.Errorf("schedule: makespan %g below latest finish %g", s.Makespan, latest)
	}

	// Per-processor exclusivity.
	byProc := make(map[int][]Entry)
	for _, e := range s.Entries {
		byProc[e.Proc] = append(byProc[e.Proc], e)
	}
	for proc, entries := range byProc {
		sort.Slice(entries, func(a, b int) bool { return entries[a].Start < entries[b].Start })
		for k := 1; k < len(entries); k++ {
			if entries[k].Start < entries[k-1].Finish-eps {
				return fmt.Errorf("schedule: tasks %d and %d overlap on processor %d",
					entries[k-1].Task, entries[k].Task, proc)
			}
		}
	}

	// Precedence and communication lower bounds.
	for _, e := range s.Entries {
		for _, h := range g.Predecessors(e.Task) {
			pred := s.Entries[h.To]
			if e.Start < pred.Finish-eps {
				return fmt.Errorf("schedule: task %d starts at %g before predecessor %d finishes at %g",
					e.Task, e.Start, h.To, pred.Finish)
			}
			if pred.Proc != e.Proc {
				d := topo.Dist(pred.Proc, e.Proc)
				minDelay := comm.EffSigma() + float64(comm.TransferTime(h.Bits)*float64(d))
				if e.Start < pred.Finish+minDelay-eps {
					return fmt.Errorf("schedule: task %d starts %g after remote predecessor %d (finish %g), need >= %g of communication",
						e.Task, e.Start-pred.Finish, h.To, pred.Finish, minDelay)
				}
			}
		}
	}
	return nil
}

// WriteJSON writes the schedule as indented JSON.
func (s *Schedule) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadJSON reads a schedule written by WriteJSON.
func ReadJSON(r io.Reader) (*Schedule, error) {
	var s Schedule
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("schedule: decode: %w", err)
	}
	return &s, nil
}

// ProcSpans returns, per processor, the total busy compute time.
func (s *Schedule) ProcSpans(nprocs int) []float64 {
	spans := make([]float64, nprocs)
	for _, e := range s.Entries {
		if e.Proc >= 0 && e.Proc < nprocs {
			spans[e.Proc] += e.Finish - e.Start
		}
	}
	return spans
}
