package service

import (
	"context"
	"encoding/json"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/solver"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// warmAttempt tries to answer a request that missed every exact tier by
// warm-starting from a cached near-miss: resolve a seeding base (the
// delta endpoint's explicit address, or the similarity index's nearest
// neighbor), project its cached task→processor assignment onto the
// requested graph, and run the SA solver from that placement under a
// cooling schedule shortened in proportion to how close the base is.
//
// Warm results are keyed under a distinct address (keyOptions.WarmSeed
// carries base + distance), so cold replays stay byte-stable and a
// repeated warm request replays its own bytes from the exact tiers.
//
// The returned handled flag reports whether the warm path answered the
// request (body or error); false means fall through to the cold solve.
// The caller is the flight leader: meta gets the warm verdict either
// way, and tag is "hit" or a local rung's name for warm-key replays or
// "miss" for a warm-started solver execution — a warm solve is still a
// solve under the conservation law. The solve itself is process's
// solveGraph, run with the warm start and under the warm key.
func (s *Server) warmAttempt(ctx context.Context, scratch *canonScratch,
	kopt keyOptions, key string, meta *procMeta, topo *topology.Topology,
	saOpt core.Options, slv solver.Solver,
	solveGraph func(context.Context, core.Options, string) ([]byte, error)) ([]byte, string, bool, error) {

	if s.sim == nil || meta.noWarm || slv.Name() != "sa" {
		return nil, "", false, nil
	}
	if meta.warmBase == "" && !s.cfg.WarmStart {
		return nil, "", false, nil
	}
	tr := obs.FromContext(ctx)
	start := time.Now()
	sk := scratch.c.Sketch()
	var ent simEntry
	var dist float64
	if meta.warmBase != "" {
		// The delta path names its base: seed from it at whatever distance
		// the edits produced (the cooling skip scales down with distance,
		// and keep-best bounds the downside at zero).
		e, ok := s.sim.Get(meta.warmBase)
		if !ok || e.Topo != kopt.Topo {
			return nil, "", false, nil
		}
		ent, dist = e, sk.Distance(e.Sketch)
	} else {
		maxDist := s.cfg.WarmMaxDistance
		if maxDist <= 0 {
			maxDist = 0.5
		}
		e, d, ok := s.sim.Lookup(sk, key, kopt.Topo, maxDist)
		if !ok {
			return nil, "", false, nil
		}
		ent, dist = e, d
	}
	// The base body must still be in memory or a local rung.
	bbody, ok := s.cache.Get(ent.Key)
	if !ok {
		bbody, _, ok = s.lookup(ent.Key, nil, true)
	}
	if !ok {
		return nil, "", false, nil
	}
	// Tasks past the edited graph's count are never projected, so the
	// seed stops there.
	seed := make([]int, min(max(ent.NumTasks, 0), scratch.c.NumTasks()))
	if !scheduleSeed(bbody, seed) {
		return nil, "", false, nil
	}
	assign := taskgraph.ProjectAssignment(seed, scratch.c.NumTasks(), topo.N())

	wopt := kopt
	wopt.WarmSeed = ent.Key + "@" + strconv.FormatFloat(dist, 'g', -1, 64)
	warmKey, buf, err := fusedKey(&scratch.c, scratch.buf, wopt)
	scratch.buf = buf
	if err != nil {
		return nil, "", false, nil
	}
	meta.key, meta.warm, meta.warmDist = warmKey, true, dist
	if tr != nil {
		tr.Observe(obs.StageWarmSeed, start, time.Since(start),
			obs.KV{Key: "base", Val: ent.Key},
			obs.KV{Key: "distance", Val: strconv.FormatFloat(dist, 'g', -1, 64)})
		tr.Annotate("warm_base", ent.Key)
		tr.Annotate("warm_distance", strconv.FormatFloat(dist, 'g', -1, 64))
	}

	// An identical warm-started solve may already be cached under the warm
	// key — the whole point of keying warm results separately.
	if body, ok := s.cache.Get(warmKey); ok {
		return body, "hit", true, nil
	}
	if body, tag, ok := s.lookup(warmKey, nil, true); ok {
		return body, tag, true, nil
	}

	saw := saOpt
	saw.Warm = &core.WarmStart{Assignment: assign, Distance: dist}
	body, err := solveGraph(ctx, saw, warmKey)
	return body, "miss", true, err
}

// resultFields and entryFields are the wire keys of Result and
// schedule.Entry, in the order of their struct fields.
var (
	resultFields = []string{"solver", "program", "topology", "makespan", "t1", "speedup", "messages",
		"transfer_time", "overhead_time", "epochs", "forced", "utilization", "schedule"}
	entryFields = []string{"task", "proc", "start", "finish"}
)

// scheduleSeed fills seed from a cached result body: seed[t] is the
// processor the body's schedule places task t on (the last entry for t
// wins), or -1. It reports whether the schedule has any entry; a body
// without one, or one that is not a result, seeds nothing. The body is
// read by scanSchedule, and by unmarshalSchedule when it lies outside
// the scanner's subset.
func scheduleSeed(body []byte, seed []int) bool {
	if ok, entries := scanSchedule(body, seed); ok {
		return entries
	}
	return unmarshalSchedule(body, seed)
}

// scanSchedule is scheduleSeed's one-pass read: a taskgraph.Scanner over
// Result's exact keys, every value read as encoding/json would decode it
// into Result. ok reports whether the whole body lay in the scanner's
// subset; only then do seed and entries hold the answer.
func scanSchedule(body []byte, seed []int) (ok, entries bool) {
	for i := range seed {
		seed[i] = -1
	}
	sc := taskgraph.NewScanner(body)
	var seen uint32
	sc.Begin('{')
	for i := 0; sc.More('}', i); i++ {
		switch sc.Field(&seen, resultFields) {
		case "solver", "program", "topology":
			sc.Str()
		case "makespan", "t1", "speedup", "transfer_time", "overhead_time", "utilization":
			sc.Float()
		case "messages", "epochs", "forced":
			sc.Int()
		case "schedule":
			if sc.Null() {
				continue
			}
			sc.Begin('[')
			for j := 0; sc.More(']', j); j++ {
				entries = true
				var task, proc int
				var eseen uint32
				sc.Begin('{')
				for k := 0; sc.More('}', k); k++ {
					switch sc.Field(&eseen, entryFields) {
					case "task":
						task = sc.Int()
					case "proc":
						proc = sc.Int()
					case "start", "finish":
						sc.Float()
					}
				}
				if task >= 0 && task < len(seed) {
					seed[task] = proc
				}
			}
		}
	}
	return sc.End(), entries
}

// unmarshalSchedule is scheduleSeed by encoding/json, for any body the
// scanner declines.
func unmarshalSchedule(body []byte, seed []int) bool {
	var base struct {
		Schedule []schedule.Entry `json:"schedule"`
	}
	if err := json.Unmarshal(body, &base); err != nil || len(base.Schedule) == 0 {
		return false
	}
	for i := range seed {
		seed[i] = -1
	}
	for _, e := range base.Schedule {
		if t := int(e.Task); t >= 0 && t < len(seed) {
			seed[t] = e.Proc
		}
	}
	return true
}
