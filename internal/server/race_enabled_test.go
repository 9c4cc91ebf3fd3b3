//go:build race

package server_test

// raceSlowdown scales wall-clock budgets for the race detector, which
// runs a simulation about ten times slower than a plain build.
const raceSlowdown = 10
