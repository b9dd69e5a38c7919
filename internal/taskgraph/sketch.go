package taskgraph

import "math"

// SketchLanes is the number of minhash lanes in a Sketch. 64 lanes give a
// standard error of about 1/√64 ≈ 0.125 on the Jaccard estimate — ample to
// separate "one task edited" (distance ≈ 0.01) from "different program"
// (distance ≈ 1) — while keeping the sketch a single cache line pair.
const SketchLanes = 64

// Sketch is a structural minhash sketch of a taskgraph: a locality-
// sensitive companion to the exact Fingerprint. Where the fingerprint
// changes completely under any edit, the sketch degrades proportionally —
// two graphs differing by one task or edge agree on almost every lane — so
// near-duplicate graphs can be found by comparing (or LSH-bucketing)
// sketches. The shingle set is one hash per task (id, clamped load) and
// one per canonical merged edge (from, to, bits); lane k holds the minimum
// of a lane-salted mix over all shingles. Equal graphs (by canonical form)
// always sketch equal; the graph and task names are excluded, exactly as
// in Fingerprint.
//
// A Sketch is a plain value (no heap state): computing one allocates
// nothing, and it can be compared, copied, hashed and serialized freely.
type Sketch [SketchLanes]uint64

// sketchSeeds are the per-lane salts, derived once from a fixed splitmix64
// stream so sketches are stable across processes and releases.
var sketchSeeds = func() [SketchLanes]uint64 {
	var seeds [SketchLanes]uint64
	x := uint64(0x5D1F_C34B_9A7E_2680)
	for i := range seeds {
		x += 0x9E3779B97F4A7C15
		seeds[i] = splitmix64(x)
	}
	return seeds
}()

// splitmix64 is the finalizer of the splitmix64 generator — a fast,
// well-mixed 64-bit permutation (Steele, Lea & Flood 2014).
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// shingle domain tags keep task and edge shingles disjoint even when their
// raw fields collide.
const (
	taskShingleTag uint64 = 0xA24B_AED4_963E_E407
	edgeShingleTag uint64 = 0x9FB2_1C65_1E98_DF25
)

// taskShingle hashes one task's structural identity (ID and clamped load).
func taskShingle(id int, load float64) uint64 {
	if load < 0 {
		load = 0 // AddTask's clamp, so wire and Graph shingles agree
	}
	return splitmix64(splitmix64(taskShingleTag^uint64(id)) ^ math.Float64bits(load))
}

// edgeShingle hashes one canonical (duplicate-merged) edge.
func edgeShingle(from, to int, bits float64) uint64 {
	return splitmix64(splitmix64(splitmix64(edgeShingleTag^uint64(from))^uint64(to)) ^ math.Float64bits(bits))
}

// Reset empties the sketch (all lanes at the identity of min).
func (s *Sketch) Reset() {
	for i := range s {
		s[i] = math.MaxUint64
	}
}

// Add folds one shingle into the sketch. Adding the same shingle twice is
// idempotent, and the result is independent of insertion order.
func (s *Sketch) Add(shingle uint64) {
	for k := range s {
		if v := splitmix64(shingle ^ sketchSeeds[k]); v < s[k] {
			s[k] = v
		}
	}
}

// Distance estimates the structural dissimilarity of two sketches:
// 1 − (matching lanes / lanes), an unbiased estimate of 1 − Jaccard over
// the underlying shingle sets. 0 means (almost surely) equal canonical
// structure; 1 means no detected overlap.
func (s Sketch) Distance(o Sketch) float64 {
	eq := 0
	for k := range s {
		if s[k] == o[k] {
			eq++
		}
	}
	return 1 - float64(float64(eq)/float64(SketchLanes))
}

// Sketch computes the graph's structural minhash sketch over the same
// canonical view Fingerprint hashes: every task's (id, load) and every
// merged edge's (from, to, bits). It equals Canonicalizer.Sketch of the
// graph's wire encoding.
func (g *Graph) Sketch() Sketch {
	var s Sketch
	s.Reset()
	for _, t := range g.tasks {
		s.Add(taskShingle(int(t.ID), t.Load))
	}
	for _, e := range g.Edges() {
		s.Add(edgeShingle(int(e.From), int(e.To), e.Bits))
	}
	return s
}

// ProjectAssignment maps a cached schedule's task→processor assignment
// onto an edited graph with numTasks tasks solved on numProcs processors:
// out[t] keeps the seed's processor for every task ID both graphs share,
// and is −1 for tasks the seed does not cover (new tasks) or whose seed
// processor does not exist on the target machine. The scheduler's warm
// init places the matched tasks and falls back to HLF ordering for the
// rest, so a near-miss seed still pins most of the placement.
func ProjectAssignment(seed []int, numTasks, numProcs int) []int {
	out := make([]int, numTasks)
	for t := range out {
		p := -1
		if t < len(seed) && seed[t] >= 0 && seed[t] < numProcs {
			p = seed[t]
		}
		out[t] = p
	}
	return out
}
