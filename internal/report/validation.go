package report

import (
	"fmt"

	"propane/internal/campaign"
	"propane/internal/core"
)

// ValidationRow compares, for one system input, the end-to-end
// propagation probability predicted compositionally from the
// permeability matrix against the fraction measured directly in the
// campaign.
type ValidationRow struct {
	Input     string
	Output    string
	Predicted float64
	Measured  float64
	Delta     float64
}

// CrossValidate computes one ValidationRow per (system input, system
// output) combination. Each predicted value composes pair
// permeabilities along the trace tree; measurements are the campaign's
// per-location system-output propagation fractions. Agreement of the
// two validates the framework's compositionality on this system.
func CrossValidate(res *campaign.Result) ([]ValidationRow, error) {
	measured := make(map[string]float64)
	counted := make(map[string]bool)
	for _, loc := range res.Locations {
		if res.Topology.IsSystemInput(loc.Signal) && loc.Injections > 0 {
			measured[loc.Signal] = loc.Fraction
			counted[loc.Signal] = true
		}
	}
	var rows []ValidationRow
	for _, out := range res.Topology.SystemOutputs() {
		preds, err := core.PredictAllEndToEnd(res.Matrix, out)
		if err != nil {
			return nil, err
		}
		for _, p := range preds {
			if !counted[p.Input] {
				continue
			}
			rows = append(rows, ValidationRow{
				Input:     p.Input,
				Output:    out,
				Predicted: p.Predicted,
				Measured:  measured[p.Input],
				Delta:     p.Predicted - measured[p.Input],
			})
		}
	}
	return rows, nil
}

// ValidationTable renders the cross-validation of compositional
// prediction against direct measurement.
//
// Note on reading the deltas: the measured fraction counts propagation
// to *any* system output, while each row's prediction targets one
// output, and the prediction assumes path independence — so moderate
// deviations are expected where paths share modules (the paper's Eq. 4
// makes the same no-correlation caveat).
func ValidationTable(res *campaign.Result) (string, error) {
	rows, err := CrossValidate(res)
	if err != nil {
		return "", err
	}
	t := &textTable{header: []string{"Input", "Output", "predicted", "measured", "delta"}}
	for _, r := range rows {
		t.add(r.Input, r.Output,
			fmt.Sprintf("%.3f", r.Predicted),
			fmt.Sprintf("%.3f", r.Measured),
			fmt.Sprintf("%+.3f", r.Delta))
	}
	return "Cross-validation: compositional prediction vs measured end-to-end propagation\n" + t.String(), nil
}
