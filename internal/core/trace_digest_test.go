package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/machsim"
	"repro/internal/topology"
)

// traceDigest returns the SHA-256 of every TracePoint of a RecordTrace
// solve, packet by packet: the trace length, then each point's Iter and
// the bits of its Temp, Delta, Fb, Fc and Ftot, little-endian.
func traceDigest(t *testing.T, prog, spec string, restarts int, cooperative bool) string {
	t.Helper()
	g, err := cliutil.BuildProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := cliutil.ParseTopology(spec)
	if err != nil {
		t.Fatal(err)
	}
	comm := topology.DefaultCommParams()
	opt := core.DefaultOptions()
	opt.Seed = 42
	opt.RecordTrace = true
	opt.Restarts = restarts
	opt.Cooperative = cooperative
	sched, err := core.NewScheduler(g, topo, comm, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := machsim.Run(machsim.Model{Graph: g, Topo: topo, Comm: comm}, sched, machsim.Options{}); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	points := 0
	for _, p := range sched.Packets() {
		put(uint64(len(p.Trace)))
		for _, tp := range p.Trace {
			put(uint64(tp.Iter))
			for _, v := range []float64{tp.Temp, tp.Delta, tp.Fb, tp.Fc, tp.Ftot} {
				put(math.Float64bits(v))
			}
		}
		points += len(p.Trace)
	}
	if points == 0 {
		t.Fatalf("%s/%s: no trace points recorded", prog, spec)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTraceDigests pins the content of the Figure 1 trajectories: the
// SHA-256 over every TracePoint of traced solves at seed 42, for a single
// run and for 4 cooperative restarts (the winning restart's trace). Any
// change to a move, an acceptance decision or a running-sum rounding
// moves a digest. Regenerate (only for an intended change of results)
// with
//
//	go test ./internal/core -run TestTraceDigests -update-golden
func TestTraceDigests(t *testing.T) {
	cases := []struct{ prog, spec string }{
		{"NE", "hypercube:3"}, {"GJ", "ring:9"}, {"FFT", "bus:8"}, {"MM", "hypercube:3"},
	}
	for _, c := range cases {
		for _, mode := range []string{"single", "cooperative"} {
			key := fmt.Sprintf("%s/%s/%s", c.prog, c.spec, mode)
			var got string
			if mode == "single" {
				got = traceDigest(t, c.prog, c.spec, 0, false)
			} else {
				got = traceDigest(t, c.prog, c.spec, 4, true)
			}
			if *updateGolden {
				t.Logf("\t%q: %q,", key, got)
				continue
			}
			if want := traceDigests[key]; got != want {
				t.Errorf("%s: trace sha256 %s, want %s", key, got, want)
			}
		}
	}
}

// traceDigests maps each traced solve to its trace's SHA-256.
var traceDigests = map[string]string{
	"NE/hypercube:3/single":      "644d6313603fbc409ed013ed7ab8df02469f79cc9397bb210a4aeeaa5e88f556",
	"NE/hypercube:3/cooperative": "dc40d53cd20178f100f7f2bf542701e339ed6cc0e8b928c889242eb8c681cd69",
	"GJ/ring:9/single":           "4b73040ffb9b79c93977e06d63f3e1f316616dd1e734fb75308304ef5185e79c",
	"GJ/ring:9/cooperative":      "0bfe58531b69678b7428f056ec79555d0412e6e1feed08b0179d7b32377d4c16",
	"FFT/bus:8/single":           "8625270d7c8d07f2d7ee60f1b66bc136c25fdb2dda559836ecd286c3736c19a1",
	"FFT/bus:8/cooperative":      "fee57c5ec8cc4c373c21981cce7df61463bd57cb7791d4a1893db33d24c87dde",
	"MM/hypercube:3/single":      "232a2439e2e553c1b5679c15ddd3bf3db3b7f59ca34375200d3c0807a95d4518",
	"MM/hypercube:3/cooperative": "7104afce3583de570127a01ed27089301d29b23bf9fb80f5037a7afaf1330bfe",
}
