package anneal

// TableDecide exposes Accept's logit-bucket fast path to the external test
// package, which replays real scheduler traces through it.
var TableDecide = tableDecide
