package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"
)

// The reference host shares its processors with other machines. A fixed
// arithmetic loop on one processor ran anywhere between 12k and 25k blocks
// a second within half a minute, with no steal time recorded, and the
// throughput of whole runs a few minutes apart differed by up to 60%. One
// run cannot average that away, so the timed phase is cut into segments, and
// before the first segment and after each one the benchmark times three
// fixed reference kernels on every processor while the server is idle.
// Each segment's durations are then rescaled to the speed at which the
// kernels run on the reference host: a segment's speed factor is the
// geometric mean of the kernels' rates around it, divided by refRate.
//
// The kernels call no code of the repository, so no change to the service
// moves them. Each does a kind of work the service does:
//
//   - jsonKernel: a JSON round trip into fresh values, SHA-256 and a sort:
//     allocation and garbage collection, like the wire path;
//   - memKernel: SHA-256, a sort and a pointer chase through a table larger
//     than the processors' private caches;
//   - mixKernel: a JSON round trip into reused values and a cache-resident
//     loop of random swaps, like the annealer.
//
// Alone, each tracked the service's slowdowns on some workloads and not on
// others, and one kernel doing all of it in one loop did worse than the
// three kept apart. Over two sets of ten runs of each closed-loop workload,
// rescaling by their geometric mean cut the spread (interquartile range
// over median) of throughput and median latency from 0.07–0.33 to
// 0.02–0.08.

// refRate is the geometric mean of the three kernels' rates, in units a
// second over both processors, on the reference host: the median over 550
// calibrations made while sizing.
const refRate = 6140

// calSpan is how long one calibration runs each kernel.
const calSpan = 150 * time.Millisecond

// refItem is one record of the JSON round trips.
type refItem struct {
	ID    int     `json:"id"`
	Name  string  `json:"name"`
	Load  float64 `json:"load"`
	Succs []int   `json:"succs"`
}

var refItems = func() []refItem {
	out := make([]refItem, 64)
	for i := range out {
		out[i] = refItem{ID: i, Name: fmt.Sprintf("t%d", i), Load: float64(i%7) + 0.5, Succs: []int{(i + 1) % 64, (i * 7) % 64}}
	}
	return out
}()

// kernel is one processor's copy of a reference kernel. unit does one unit
// of its work and returns a value that depends on all of it, so that none
// of it can be optimized away.
type kernel interface{ unit() uint64 }

// xorshift is a xorshift64 generator.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

// roundTrip encodes refItems and decodes them into *into.
func roundTrip(into *[]refItem) []byte {
	b, err := json.Marshal(refItems)
	if err == nil {
		err = json.Unmarshal(b, into)
	}
	if err != nil {
		panic(err) // fixed records of ints, strings and finite floats always round-trip
	}
	return b
}

type jsonKernel struct{}

func (jsonKernel) unit() uint64 {
	var back []refItem
	b := roundTrip(&back)
	sum := sha256.Sum256(b)
	xs := make([]int, 0, len(back)*2)
	for _, it := range back {
		xs = append(xs, it.Succs...)
	}
	slices.Sort(xs)
	seen := map[int]int{}
	for _, x := range xs {
		seen[x]++
	}
	return uint64(sum[0]) + uint64(len(seen))
}

type memKernel struct {
	block     []byte
	keys, tmp []uint64
	next      []uint32 // one cycle through every slot
	at        uint32
}

func newMemKernel() *memKernel {
	k := &memKernel{block: make([]byte, 4096), keys: make([]uint64, 2048), tmp: make([]uint64, 2048), next: make([]uint32, 1<<20)}
	rng := xorshift(12345)
	for i := range k.block {
		k.block[i] = byte(rng.next())
	}
	for i := range k.keys {
		k.keys[i] = rng.next()
	}
	// Sattolo's shuffle: a single cycle, so the chase visits every slot.
	for i := range k.next {
		k.next[i] = uint32(i)
	}
	for i := len(k.next) - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i))
		k.next[i], k.next[j] = k.next[j], k.next[i]
	}
	return k
}

func (k *memKernel) unit() uint64 {
	sum := sha256.Sum256(k.block)
	copy(k.tmp, k.keys)
	slices.Sort(k.tmp)
	p := k.at
	for i := 0; i < 2048; i++ {
		p = k.next[p]
	}
	k.at = p
	return uint64(sum[0]) + k.tmp[7] + uint64(p)
}

type mixKernel struct {
	back      []refItem
	keys, tmp []uint64
	vals      []float64
	rng       xorshift
}

func newMixKernel() *mixKernel {
	k := &mixKernel{keys: make([]uint64, 1024), tmp: make([]uint64, 1024), vals: make([]float64, 128), rng: 88172645463325252}
	for i := range k.keys {
		k.keys[i] = k.rng.next()
	}
	for i := range k.vals {
		k.vals[i] = float64(k.rng.next()%1000) / 10
	}
	return k
}

func (k *mixKernel) unit() uint64 {
	k.back = k.back[:0]
	b := roundTrip(&k.back)
	sum := sha256.Sum256(b)
	copy(k.tmp, k.keys)
	slices.Sort(k.tmp)
	acc := 0.0
	for i := 0; i < 4000; i++ {
		r := k.rng.next()
		a, c := int(r%128), int((r>>8)%128)
		d := k.vals[a] - k.vals[c]
		if d > 0 || float64(r>>40)/(1<<24) < 0.3 {
			k.vals[a], k.vals[c] = k.vals[c], k.vals[a]
			acc += d
		}
	}
	return uint64(sum[0]) + k.tmp[3] + uint64(len(k.back)) + uint64(acc)
}

// calibrator holds each kernel's copies, one per processor.
type calibrator struct {
	kernels [][]kernel
	span    time.Duration // how long one calibration runs each kernel
	sink    uint64
}

func newCalibrator(procs int, span time.Duration) *calibrator {
	c := &calibrator{kernels: make([][]kernel, 3), span: span}
	for i := 0; i < procs; i++ {
		c.kernels[0] = append(c.kernels[0], jsonKernel{})
		c.kernels[1] = append(c.kernels[1], newMemKernel())
		c.kernels[2] = append(c.kernels[2], newMixKernel())
	}
	return c
}

// factor runs each kernel on every processor for c.span and returns the
// geometric mean of their rates divided by refRate.
func (c *calibrator) factor() float64 {
	logSum := 0.0
	for _, copies := range c.kernels {
		logSum += math.Log(c.rate(copies))
	}
	return math.Exp(logSum/float64(len(c.kernels))) / refRate
}

// rate runs one kernel's copies side by side for c.span, each at least one
// unit, and returns the units done per second.
func (c *calibrator) rate(copies []kernel) float64 {
	units := make([]int, len(copies))
	sinks := make([]uint64, len(copies))
	start := time.Now()
	end := start.Add(c.span)
	var wg sync.WaitGroup
	for g, k := range copies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for units[g] == 0 || time.Now().Before(end) {
				sinks[g] += k.unit()
				units[g]++
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := 0
	for g := range units {
		total += units[g]
		c.sink += sinks[g]
	}
	return float64(total) / elapsed.Seconds()
}
