package experiments

import (
	"context"
	"fmt"
	"io"

	"aarc/internal/core"
	"aarc/internal/search"
	"aarc/internal/workloads"
)

// AblationVariant is one switch-flipped AARC configuration.
type AblationVariant struct {
	Name string
	Opts core.Options
}

// AblationVariants enumerates the design-choice ablations DESIGN.md calls
// out: priority queue vs FIFO, exponential back-off vs fixed step, decoupled
// vs coupled search, and sub-path scheduling on/off.
func AblationVariants() []AblationVariant {
	mk := func(mutate func(*core.Options)) core.Options {
		o := core.DefaultOptions()
		mutate(&o)
		return o
	}
	return []AblationVariant{
		{Name: "AARC (full)", Opts: core.DefaultOptions()},
		{Name: "-priority (FIFO queue)", Opts: mk(func(o *core.Options) { o.FIFO = true })},
		{Name: "-backoff (fixed step)", Opts: mk(func(o *core.Options) { o.NoBackoff = true })},
		{Name: "-decoupling (coupled)", Opts: mk(func(o *core.Options) { o.CoupledOnly = true })},
		{Name: "-subpaths (CP only)", Opts: mk(func(o *core.Options) { o.NoSubpaths = true })},
	}
}

// AblationRow is one (workload, variant) outcome.
type AblationRow struct {
	Workload       string
	Variant        string
	Samples        int
	TotalRuntimeMS float64
	FinalCost      float64
	FinalE2EMS     float64
	SLOMS          float64
}

// AblationResult collects the ablation sweep.
type AblationResult struct {
	Rows []AblationRow
}

// RunAblationPool runs the (workload, variant) cells on the pool's workers.
// Cells are independent and rows land at fixed indices, so the table is
// identical to the sequential sweep a nil pool runs.
func RunAblationPool(seed uint64, pool *Pool) (AblationResult, error) {
	type cell struct {
		w string
		v AblationVariant
	}
	var cells []cell
	for _, w := range Workloads() {
		for _, v := range AblationVariants() {
			cells = append(cells, cell{w, v})
		}
	}
	rows := make([]AblationRow, len(cells))
	err := pool.Do(len(cells), func(i int) error {
		w, v := cells[i].w, cells[i].v
		spec, err := workloads.ByName(w)
		if err != nil {
			return err
		}
		runner, err := NewRunner(spec, seed)
		if err != nil {
			return err
		}
		outcome, err := core.New(v.Opts).Search(context.Background(), runner, search.Options{SLOMS: spec.SLOMS})
		if err != nil {
			return fmt.Errorf("ablation %s/%s: %w", w, v.Name, err)
		}
		res, err := runner.Evaluate(outcome.Best)
		if err != nil {
			return err
		}
		rows[i] = AblationRow{
			Workload:       w,
			Variant:        v.Name,
			Samples:        outcome.Trace.Len(),
			TotalRuntimeMS: outcome.Trace.TotalRuntimeMS(),
			FinalCost:      res.Cost,
			FinalE2EMS:     res.E2EMS,
			SLOMS:          spec.SLOMS,
		}
		return nil
	})
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{Rows: rows}, nil
}

// Render prints the ablation table.
func (a AblationResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Ablation — AARC design choices (per workload)")
	t := &table{header: []string{"workload", "variant", "samples", "search_runtime_s", "final_cost_k", "final_e2e_s", "slo_s"}}
	for _, r := range a.Rows {
		t.addRow(
			r.Workload, r.Variant,
			fmt.Sprintf("%d", r.Samples),
			fmt.Sprintf("%.0f", r.TotalRuntimeMS/1000),
			fmt.Sprintf("%.1f", r.FinalCost/1000),
			fmt.Sprintf("%.1f", r.FinalE2EMS/1000),
			fmt.Sprintf("%.0f", r.SLOMS/1000),
		)
	}
	t.render(w)
	fmt.Fprintln(w)
}
