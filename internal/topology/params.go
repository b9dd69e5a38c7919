package topology

import "fmt"

// CommParams bundles the communication parameters of the paper's cost
// model (§4.2b). Two events characterize message handling: σ, the time to
// forward (send) one message, and τ, the time to receive or route one
// message. They derive from the context-switch time S, the output setup
// time O, and the header-control time H:
//
//	σ = 2S + O
//	τ = 2S + H + O
//
// For the paper's bit-serial linked hypercube systems O = 3 µs and
// S = H = 2 µs, giving σ = 7 µs and τ = 9 µs. Links have a bandwidth BW;
// a message of L bits takes L/BW per link.
type CommParams struct {
	// Bandwidth is the link bandwidth in bits per microsecond. The paper's
	// 10 Mb/s link is 10 bits/µs (40-bit variables thus take 4 µs per hop).
	Bandwidth float64 `json:"bandwidth"`
	// Sigma (σ) is the message send/forward overhead in µs.
	Sigma float64 `json:"sigma"`
	// Tau (τ) is the message receive/route overhead in µs.
	Tau float64 `json:"tau"`
	// Scale multiplies every communication time. 1 is the paper's "with
	// communication" configuration; 0 is the "w/o comm" configuration in
	// which messages are free and instantaneous.
	Scale float64 `json:"scale"`
}

// DefaultCommParams returns the paper's parameters: 10 Mb/s links,
// σ = 7 µs, τ = 9 µs, communication enabled.
func DefaultCommParams() CommParams {
	return CommParams{Bandwidth: 10, Sigma: 7, Tau: 9, Scale: 1}
}

// NoComm returns a copy of p with communication disabled (Scale = 0),
// matching the paper's "w/o Comm." columns.
func (p CommParams) NoComm() CommParams {
	p.Scale = 0
	return p
}

// WithComm returns a copy of p with communication enabled (Scale = 1).
func (p CommParams) WithComm() CommParams {
	p.Scale = 1
	return p
}

// Validate reports whether the parameters are usable.
func (p CommParams) Validate() error {
	switch {
	case p.Bandwidth <= 0:
		return fmt.Errorf("topology: bandwidth %g, want > 0", p.Bandwidth)
	case p.Sigma < 0 || p.Tau < 0:
		return fmt.Errorf("topology: negative overhead σ=%g τ=%g", p.Sigma, p.Tau)
	case p.Scale < 0:
		return fmt.Errorf("topology: negative scale %g", p.Scale)
	}
	return nil
}

// ParamsFromHardware derives σ and τ from the hardware event times:
// context switch S, output setup O and header control H (all µs).
func ParamsFromHardware(bandwidth, s, o, h float64) CommParams {
	return CommParams{
		Bandwidth: bandwidth,
		Sigma:     2*s + o,
		Tau:       2*s + h + o,
		Scale:     1,
	}
}

// TransferTime returns the per-link transfer time w = L/BW (µs) of a
// message of the given volume in bits, scaled by the communication scale.
func (p CommParams) TransferTime(bits float64) float64 {
	return p.Scale * bits / p.Bandwidth
}

// EffSigma returns the effective (scaled) send overhead.
func (p CommParams) EffSigma() float64 { return float64(p.Scale * p.Sigma) }

// EffTau returns the effective (scaled) receive/route overhead.
func (p CommParams) EffTau() float64 { return float64(p.Scale * p.Tau) }

// CommCost evaluates the paper's equation (4): the effective cost of
// sending a message of the given volume between two tasks whose hosting
// processors are dist hops apart:
//
//	c = w·d + (d − 1 + δ)·τ + (1 − δ)·σ
//
// where δ = 1 iff the processors coincide (d = 0), in which case the cost
// is identically zero. The three parts are the distance-volume product on
// the links, the routing contribution of the intermediate processors, and
// the link setup cost.
func (p CommParams) CommCost(dist int, bits float64) float64 {
	if dist <= 0 {
		return 0
	}
	w := p.TransferTime(bits)
	return float64(w*float64(dist)) + float64(float64(dist-1)*p.EffTau()) + p.EffSigma()
}

// MaxCommCost returns equation (4) evaluated at the given distance for a
// message of the given volume; it is a convenience for normalization code
// that places "the tasks with the highest communication at the largest
// distance" (§4.2c).
func (p CommParams) MaxCommCost(diameter int, bits float64) float64 {
	return p.CommCost(diameter, bits)
}
