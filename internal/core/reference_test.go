package core

import "repro/internal/anneal"

// refPacket is the reference annealing move of a packet: it implements
// anneal.Problem, so anneal.Minimize anneals it move by move through
// Propose, anneal.Accept and Apply. The scheduler makes the same moves
// inside anneal.Column.Stage and anneal.Grid.Stage, which repeat
// Propose's draws and float expressions and Apply's order inline, and
// FuzzStageMatchesMinimize holds them to this reference. The packet's own
// Cost, SaveBest and RestoreBest complete the interfaces.
type refPacket struct {
	*packet
	// The move priced by the last Propose, for Apply: candidate, target
	// slot, the candidate's current slot, and the incumbent it displaces
	// (-1 if none).
	moveI, moveJ, moveCur, moveOther int
}

// reference returns the reference move over pk's state.
func reference(pk *packet) *refPacket { return &refPacket{packet: pk} }

// Propose implements anneal.Problem with the paper's elementary moves
// (§5.2a): pick a task tᵢ and a processor pⱼ ≠ m(tᵢ); if pⱼ is free,
// (re)assign tᵢ to pⱼ, otherwise exchange tᵢ with the task occupying pⱼ.
// The move is priced from the contribution table and recorded for Apply;
// the mapping and the running components are not touched, and no heap
// allocation happens. Every draw is rng.Intn(k) for k in {n, n−1, p, p−1},
// taken through the packet's precomputed divisors.
func (pk *refPacket) Propose(rng *anneal.Rand) (float64, bool) {
	n, p := len(pk.tasks), len(pk.procs)
	if n == 0 || p == 0 || (n == 1 && p == 1) {
		return 0, false // no alternative mapping exists
	}
	i := rng.Draw(&pk.drawN)
	cur := pk.procOf[i]
	if p == 1 && cur == 0 {
		// The single slot already holds ti; a legal move must involve a
		// different task (which then displaces the incumbent).
		i = wrap(i+1+rng.Draw(&pk.drawN1), n)
		cur = pk.procOf[i]
	}
	j := rng.Draw(&pk.drawP)
	if j == cur {
		j = wrap(j+1+rng.Draw(&pk.drawP1), p) // resample a slot different from m(ti); p > 1 here
	}
	other := pk.taskAt[j]

	// ti moves onto slot j; if j was occupied, its task takes ti's old
	// slot (which may be "unassigned", contributing nothing).
	before := pk.componentCost(i, cur) + pk.componentCost(other, j)
	after := pk.contribution(i, j)
	if other >= 0 {
		after += pk.componentCost(other, cur)
	}
	pk.moveI, pk.moveJ, pk.moveCur, pk.moveOther = i, j, cur, other
	return after - before, true
}

// wrap returns k mod m for 0 ≤ k < 2m without a division.
func wrap(k, m int) int {
	if k >= m {
		k -= m
	}
	return k
}

// Apply implements anneal.Problem: commit the move priced by the last
// Propose, updating the mapping and the running components.
func (pk *refPacket) Apply() {
	i, j, cur, other := pk.moveI, pk.moveJ, pk.moveCur, pk.moveOther
	if cur >= 0 {
		pk.remove(i)
	}
	if other >= 0 {
		pk.remove(other)
	}
	pk.place(i, j)
	if other >= 0 && cur >= 0 {
		pk.place(other, cur)
	}
}

// componentCost returns candidate i's contribution when on slot j, or 0
// when i or j denote "none" (negative).
func (pk *refPacket) componentCost(i, j int) float64 {
	if i < 0 || j < 0 {
		return 0
	}
	return pk.contribution(i, j)
}
