// Package use is the fixture's one caller.
package use

import "fixture"

// Run sets AParams.Depth and leaves BParams at its default.
func Run() (int, int) {
	return fixture.Depths(fixture.AParams{Depth: 2}, fixture.BParams{})
}
