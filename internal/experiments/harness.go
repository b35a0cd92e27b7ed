// Package experiments defines one registered experiment per table and
// figure in the paper's evaluation. Most experiments are declarative: a
// sweep.Spec grid plus a Render function that formats the aggregated
// result, executed through the sweep engine so overlapping grids share
// cached cells (see internal/sweep). Experiments that attach process-local
// probes (Mod hooks) keep a hand-rolled Run instead. cmd/fedbench and the
// top-level benchmarks are thin wrappers over this package.
package experiments

import (
	"fedwcm/internal/data"
	"fedwcm/internal/nn"
	"fedwcm/internal/sweep"
)

// ModelFor maps a dataset spec and model name to a network builder; see
// sweep.ModelFor.
func ModelFor(spec *data.Spec, model string) (nn.Builder, error) {
	return sweep.ModelFor(spec, model)
}
