//go:build race

package sim_test

// raceEnabled reports a -race build, whose sync.Pool drops pooled items at
// random, so an allocation bound that rests on pooling cannot hold.
const raceEnabled = true
