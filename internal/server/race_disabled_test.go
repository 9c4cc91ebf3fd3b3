//go:build !race

package server_test

const raceSlowdown = 1
