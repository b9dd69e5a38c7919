package core

import (
	"math"
	"math/rand"
	"testing"
)

// lapMin solves the rectangular linear assignment problem on a rows ×
// cols cost matrix with rows ≤ cols: it matches every row to its own
// column at the least total cost, by the Hungarian method with row and
// column potentials (Kuhn–Munkres, in the O(rows²·cols) form that adds
// one row at a time along a shortest augmenting path). It returns colOf,
// the column of each row, and the cost of that matching summed in row
// order from the matrix itself, so the potentials' round-off never enters
// it.
func lapMin(rows, cols int, cost func(r, c int) float64) (float64, []int) {
	if rows > cols {
		panic("lapMin needs rows ≤ cols")
	}
	// Rows and columns are 1-based here; column 0 is the virtual start of
	// each augmenting path, and rowAt[c] is the row on column c (0: none).
	u, v := make([]float64, rows+1), make([]float64, cols+1)
	rowAt, way := make([]int, cols+1), make([]int, cols+1)
	minv, used := make([]float64, cols+1), make([]bool, cols+1)
	for r := 1; r <= rows; r++ {
		rowAt[0] = r
		c0 := 0
		for c := range minv {
			minv[c], used[c] = math.Inf(1), false
		}
		for {
			used[c0] = true
			r0, delta, c1 := rowAt[c0], math.Inf(1), 0
			for c := 1; c <= cols; c++ {
				if used[c] {
					continue
				}
				if d := cost(r0-1, c-1) - u[r0] - v[c]; d < minv[c] {
					minv[c], way[c] = d, c0
				}
				if minv[c] < delta {
					delta, c1 = minv[c], c
				}
			}
			for c := 0; c <= cols; c++ {
				if used[c] {
					u[rowAt[c]] += delta
					v[c] -= delta
				} else {
					minv[c] -= delta
				}
			}
			if c0 = c1; rowAt[c0] == 0 {
				break
			}
		}
		for c0 != 0 { // flip the augmenting path
			c1 := way[c0]
			rowAt[c0] = rowAt[c1]
			c0 = c1
		}
	}
	colOf := make([]int, rows)
	for c := 1; c <= cols; c++ {
		if r := rowAt[c]; r > 0 {
			colOf[r-1] = c - 1
		}
	}
	total := 0.0
	for r, c := range colOf {
		total += cost(r, c)
	}
	return total, colOf
}

// packetLAP returns the least eq. 6 cost of any mapping of pk that places
// min(n, p) candidates: the linear assignment optimum over the
// contribution table, solved on its transpose when there are more
// candidates than processors.
func packetLAP(pk *packet) float64 {
	n, p := len(pk.tasks), len(pk.procs)
	if n <= p {
		lo, _ := lapMin(n, p, pk.contribution)
		return lo
	}
	lo, _ := lapMin(p, n, func(j, i int) float64 { return pk.contribution(i, j) })
	return lo
}

// TestLAPMatchesBruteForce holds lapMin to an exhaustive search over every
// matching of random matrices up to 5 × 5, in both orientations, with
// ties and negative costs, and checks that the matching it returns is one
// to one and costs what it reports.
func TestLAPMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1991))
	for trial := 0; trial < 2000; trial++ {
		rows, cols := 1+rng.Intn(5), 1+rng.Intn(5)
		if rows > cols {
			rows, cols = cols, rows
		}
		a := make([]float64, rows*cols)
		for k := range a {
			a[k] = 2*rng.Float64() - 1
			if rng.Intn(3) == 0 {
				a[k] = float64(rng.Intn(3) - 1)
			}
		}
		cost := func(r, c int) float64 { return a[r*cols+c] }
		got, colOf := lapMin(rows, cols, cost)
		taken, sum := make([]bool, cols), 0.0
		for r, c := range colOf {
			if taken[c] {
				t.Fatalf("trial %d: column %d matched twice in %v", trial, c, colOf)
			}
			taken[c] = true
			sum += cost(r, c)
		}
		if sum != got {
			t.Fatalf("trial %d: matching %v costs %v, lapMin reports %v", trial, colOf, sum, got)
		}
		want := math.Inf(1)
		var search func(r int, acc float64)
		search = func(r int, acc float64) {
			if r == rows {
				want = min(want, acc)
				return
			}
			for c := range taken {
				if !taken[c] {
					taken[c] = true
					search(r+1, acc+cost(r, c))
					taken[c] = false
				}
			}
		}
		taken = make([]bool, cols)
		search(0, 0)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d (%d × %d): lapMin %v, exhaustive %v", trial, rows, cols, got, want)
		}
	}
}
