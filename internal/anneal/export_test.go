package anneal

// Bracket exposes the exp-free acceptance bracket to the external test
// package, which replays real scheduler traces through it.
var Bracket = bracket
