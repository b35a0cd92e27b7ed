package experiments

import "fedwcm/internal/sweep"

// specFor builds the RunSpec for one cell under the dataset preset,
// applying the effort multiplier. Declarative experiments get the same
// resolution through sweep.Spec.Expand; this wrapper serves the hand-rolled
// experiments whose cells carry Mod hooks and so cannot be swept.
func specFor(opt Options, dataset, method string, beta, imf float64) sweep.RunSpec {
	return sweep.PresetSpec(dataset, method, beta, imf, opt.Seed, opt.Effort)
}
