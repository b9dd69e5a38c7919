package service

import (
	"context"
	"encoding/json"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
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
// solve under the conservation law.
func (s *Server) warmAttempt(ctx context.Context, scratch *canonScratch, req *rawRequest,
	kopt keyOptions, key string, meta *procMeta, topo *topology.Topology,
	comm topology.CommParams, saOpt core.Options, slv solver.Solver,
	lane engine.Lane) ([]byte, string, bool, error) {

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
	var base struct {
		Schedule []schedule.Entry `json:"schedule"`
	}
	if err := json.Unmarshal(bbody, &base); err != nil || len(base.Schedule) == 0 {
		return nil, "", false, nil
	}
	seed := make([]int, ent.NumTasks)
	for i := range seed {
		seed[i] = -1
	}
	for _, e := range base.Schedule {
		if t := int(e.Task); t >= 0 && t < len(seed) {
			seed[t] = e.Proc
		}
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
	g, err := scratch.c.Graph()
	if err != nil {
		return nil, "", true, badRequest("decode request: %v", err)
	}
	sreq := solver.Request{Graph: g, Topo: topo, Comm: comm, SA: saw}
	sreq.Portfolio.MemberTimeout = time.Duration(req.MemberTimeoutMS) * time.Millisecond
	if err := sreq.Validate(); err != nil {
		return nil, "", true, badRequest("%v", err)
	}
	var idx *simEntry
	if !req.NoCache {
		idx = &simEntry{Topo: kopt.Topo, Spec: req.Topo, Sketch: sk,
			Graph: scratch.c.AppendCanonicalJSON(nil), Opt: kopt,
			NumTasks: scratch.c.NumTasks()}
	}
	body, err := s.solve(ctx, slv, sreq, req.TimeoutMS, kopt.Topo, warmKey, lane, idx)
	return body, "miss", true, err
}
