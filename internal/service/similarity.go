package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/taskgraph"
)

// SimIndex is a bounded similarity index over solved requests: for every
// cacheable SA solve it retains the graph's structural minhash sketch, the
// canonical graph bytes, the option block and the content address the
// body was cached under. When a request misses every exact tier, the
// index answers "what is the nearest graph we have already solved?" —
// candidates come from LSH band buckets in O(bucket) time and are
// verified by exact sketch distance, so a near miss costs far less than
// the solve it seeds.
//
// The index is advisory: losing it (or an entry pointing at an evicted
// body) only costs a warm start, never correctness. It persists beside
// the disk tier so a restarted server warms from its previous working
// set.
type SimIndex struct {
	mu      sync.RWMutex
	size    int              // the ring's capacity
	entries []simEntry       // ring buffer, grown on demand up to size
	live    []bool           // slot occupancy
	next    int              // next ring slot to (over)write
	byKey   map[string]int   // content address -> slot
	bands   map[uint64][]int // LSH band bucket -> slots
}

// simEntry is one indexed solve. Opt is stored with WarmSeed cleared —
// the cold option block — so the delta endpoint can rebuild the original
// request from the entry alone.
type simEntry struct {
	Key  string `json:"key"`
	Topo string `json:"topo"`
	// Spec is the request's topology spec ("hypercube:3"); Topo is the
	// resolved name ("hypercube-8") that keys use. Deltas need the spec
	// form to rebuild a parseable request.
	Spec     string           `json:"spec"`
	Sketch   taskgraph.Sketch `json:"sketch"`
	Graph    json.RawMessage  `json:"graph"`
	Opt      keyOptions       `json:"opt"`
	NumTasks int              `json:"num_tasks"`
	// Cold is the plain (cold) key of the request the entry answered:
	// Key itself for a cold solve, the request's own key for a warm one.
	// Files written before it existed load with it empty.
	Cold string `json:"cold,omitempty"`
}

const (
	// simBands × simRows must equal taskgraph.SketchLanes. Four rows per
	// band keeps near-duplicate recall essentially 1 for the distances
	// warm starting targets (a few edits on a ~100-task graph lands well
	// under 0.1) while still pruning unrelated graphs from the candidate
	// set.
	simBands = 16
	simRows  = taskgraph.SketchLanes / simBands

	// defaultSimIndexSize bounds the ring when Config.SimIndexSize is
	// unset. Each entry stores the canonical graph bytes, so the footprint
	// is comparable to a slice of request bodies, not of results.
	defaultSimIndexSize = 4096
)

// NewSimIndex builds an empty index holding at most size entries
// (<= 0 means defaultSimIndexSize). The ring grows as entries arrive: a
// server that solves a few dozen distinct graphs does not carry the
// full-size ring (about 3 MiB at the default size) in its heap.
func NewSimIndex(size int) *SimIndex {
	if size <= 0 {
		size = defaultSimIndexSize
	}
	return &SimIndex{
		size:  size,
		byKey: make(map[string]int),
		bands: make(map[uint64][]int),
	}
}

// simBandKey hashes one LSH band of the sketch (FNV-1a over the band's
// lanes, salted with the band index so equal lane values in different
// bands land in different buckets).
func simBandKey(sk taskgraph.Sketch, band int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h ^= uint64(band)
	h *= prime64
	for i := band * simRows; i < (band+1)*simRows; i++ {
		v := sk[i]
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime64
		}
	}
	return h
}

// Add indexes one solved request. Re-adding an existing address is a
// no-op; when the ring is full the oldest slot is evicted first.
func (ix *SimIndex) Add(e simEntry) {
	if ix == nil || e.Key == "" {
		return
	}
	e.Opt.WarmSeed = ""
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, ok := ix.byKey[e.Key]; ok {
		return
	}
	slot := ix.next
	if slot == len(ix.entries) { // the ring is still filling
		ix.entries = append(ix.entries, simEntry{})
		ix.live = append(ix.live, false)
	}
	ix.next = (ix.next + 1) % ix.size
	if ix.live[slot] {
		ix.dropLocked(slot)
	}
	ix.entries[slot] = e
	ix.live[slot] = true
	ix.byKey[e.Key] = slot
	for b := 0; b < simBands; b++ {
		k := simBandKey(e.Sketch, b)
		ix.bands[k] = append(ix.bands[k], slot)
	}
}

// dropLocked evicts the entry in slot: its address and band bucket
// references go away with it.
func (ix *SimIndex) dropLocked(slot int) {
	old := ix.entries[slot]
	delete(ix.byKey, old.Key)
	for b := 0; b < simBands; b++ {
		k := simBandKey(old.Sketch, b)
		bucket := ix.bands[k]
		for i, s := range bucket {
			if s == slot {
				bucket[i] = bucket[len(bucket)-1]
				bucket = bucket[:len(bucket)-1]
				break
			}
		}
		if len(bucket) == 0 {
			delete(ix.bands, k)
		} else {
			ix.bands[k] = bucket
		}
	}
	ix.entries[slot] = simEntry{}
	ix.live[slot] = false
}

// Get returns the entry stored under an exact content address — the
// delta endpoint's base resolution.
func (ix *SimIndex) Get(key string) (simEntry, bool) {
	if ix == nil {
		return simEntry{}, false
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	slot, ok := ix.byKey[key]
	if !ok {
		return simEntry{}, false
	}
	return ix.entries[slot], true
}

// Lookup returns the nearest indexed entry to sk on the same topology,
// excluding every answer to the request selfKey itself (its cold solve
// and its warm ones), with exact sketch distance at most maxDist. A warm
// answer lies at distance 0 from its request, so without the exclusion
// each repeat of a near miss would seed from the last one's answer under
// a new warm key instead of replaying it.
// Candidates are every entry sharing at least one LSH band with sk; each
// is verified by exact distance, so a returned match is never a hash
// artifact. Ties break toward the lexicographically smaller address so
// the choice is deterministic given the index contents.
func (ix *SimIndex) Lookup(sk taskgraph.Sketch, selfKey, topo string, maxDist float64) (simEntry, float64, bool) {
	if ix == nil {
		return simEntry{}, 0, false
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	seen := make(map[int]struct{}, 16)
	best := -1
	bestDist := maxDist
	for b := 0; b < simBands; b++ {
		for _, slot := range ix.bands[simBandKey(sk, b)] {
			if _, dup := seen[slot]; dup {
				continue
			}
			seen[slot] = struct{}{}
			e := &ix.entries[slot]
			if !ix.live[slot] || e.Topo != topo || e.Key == selfKey || e.Cold == selfKey {
				continue
			}
			d := sk.Distance(e.Sketch)
			if d > bestDist {
				continue
			}
			if best >= 0 && d == bestDist && e.Key >= ix.entries[best].Key {
				continue
			}
			best, bestDist = slot, d
		}
	}
	if best < 0 {
		return simEntry{}, 0, false
	}
	return ix.entries[best], bestDist, true
}

// Len reports the live entry count.
func (ix *SimIndex) Len() int {
	if ix == nil {
		return 0
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.byKey)
}

// simIndexFile is the persisted form: the live entries in ring order
// (oldest first), so a reloaded index evicts in the same order the
// original would have.
type simIndexFile struct {
	Entries []simEntry `json:"entries"`
}

// Save writes the index atomically (temp + rename, the disk tier's
// idiom) so a crash mid-write leaves the previous snapshot intact.
func (ix *SimIndex) Save(path string) error {
	if ix == nil {
		return nil
	}
	ix.mu.RLock()
	var f simIndexFile
	n := len(ix.entries)
	for i := 0; i < n; i++ {
		slot := (ix.next + i) % n
		if ix.live[slot] {
			f.Entries = append(f.Entries, ix.entries[slot])
		}
	}
	ix.mu.RUnlock()
	data, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("service: sim index marshal: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Load replays a Save snapshot into the index. A missing file is not an
// error (first boot); a corrupt one is reported and the index stays
// empty — the tier above treats it as cold.
func (ix *SimIndex) Load(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	var f simIndexFile
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("service: sim index load: %w", err)
	}
	for _, e := range f.Entries {
		ix.Add(e)
	}
	return nil
}
