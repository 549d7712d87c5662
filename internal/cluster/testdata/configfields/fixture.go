// Package fixture holds two config types that share a field name, for
// TestConfigFieldGateKeysOnType.
package fixture

// AParams is set by a caller.
type AParams struct{ Depth int }

func (p AParams) withDefaults() AParams {
	if p.Depth == 0 {
		p.Depth = 8
	}
	return p
}

// BParams is set only by its own defaults.
type BParams struct{ Depth int }

func (p BParams) withDefaults() BParams {
	if p.Depth == 0 {
		p.Depth = 4
	}
	return p
}

// Depths returns both types' depths after defaulting.
func Depths(a AParams, b BParams) (int, int) {
	return a.withDefaults().Depth, b.withDefaults().Depth
}
