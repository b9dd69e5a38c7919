package anneal

// Accept and Bracket expose the exp-free acceptance test to the external
// test package, which replays real scheduler traces through it.
var (
	Accept  = accept
	Bracket = bracket
)
