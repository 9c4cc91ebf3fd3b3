// Package suite bundles the cosimvet analyzers. cmd/cosimvet and the
// repo-wide cleanliness test both consume this list, so adding a rule
// here wires it into the CLI and CI in one step.
package suite

import (
	"cosim/internal/analysis"
	"cosim/internal/analysis/ctxfirst"
	"cosim/internal/analysis/detsafe"
	"cosim/internal/analysis/lockedfield"
	"cosim/internal/analysis/lockorder"
	"cosim/internal/analysis/obsnames"
	"cosim/internal/analysis/poolsafe"
	"cosim/internal/analysis/schemeerr"
	"cosim/internal/analysis/timesafe"
	"cosim/internal/analysis/transportclose"
)

// Analyzers returns the full cosimvet rule set in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxfirst.Analyzer,
		detsafe.Analyzer,
		lockedfield.Analyzer,
		lockorder.Analyzer,
		obsnames.Analyzer,
		poolsafe.Analyzer,
		schemeerr.Analyzer,
		timesafe.Analyzer,
		transportclose.Analyzer,
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *analysis.Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
