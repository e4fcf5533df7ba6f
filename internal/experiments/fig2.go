package experiments

import (
	"fmt"
	"io"

	"aarc/internal/resources"
	"aarc/internal/workflow"
	"aarc/internal/workloads"
)

// Fig2Result is one workload's runtime and cost heatmap over a uniform
// decoupled (vCPU, memory) grid — the motivation experiment of §II-A.
// Cell [i][j] corresponds to CPUs[i] × Mems[j]; NaN-free: infeasible (OOM)
// cells carry a negative sentinel in RuntimeMS and Cost.
type Fig2Result struct {
	Workload  string
	CPUs      []float64
	Mems      []float64
	RuntimeMS [][]float64
	Cost      [][]float64
	// MinCostCPU/MinCostMem locate the cheapest SLO-feasible cell.
	MinCostCPU float64
	MinCostMem float64
	MinCost    float64
}

// OOMSentinel marks grid cells where the workflow OOMs.
const OOMSentinel = -1

// fig2Axes returns the per-workload heatmap axes, mirroring the paper's
// figure axes (low vCPU range for Chatbot / ML Pipeline, high vCPU and
// memory range for Video Analysis).
func fig2Axes(name string) (cpus, mems []float64) {
	switch name {
	case "video-analysis":
		return []float64{4, 5, 6, 7, 8},
			[]float64{5120, 6144, 7168, 8192}
	default:
		return []float64{0.5, 1, 2, 3, 4},
			[]float64{512, 1024, 1536, 2048}
	}
}

// RunFig2 sweeps the uniform-configuration grid for one workload with noise
// disabled and returns its heatmaps.
func RunFig2(workloadName string) (Fig2Result, error) {
	spec, err := workloads.ByName(workloadName)
	if err != nil {
		return Fig2Result{}, err
	}
	runner, err := workflow.NewRunner(spec, workflow.RunnerOptions{
		HostCores: HostCores,
		Noise:     false,
	})
	if err != nil {
		return Fig2Result{}, err
	}

	cpus, mems := fig2Axes(workloadName)
	out := Fig2Result{
		Workload: workloadName,
		CPUs:     cpus,
		Mems:     mems,
		MinCost:  -1,
	}
	groups := spec.FunctionGroups()
	for _, cpu := range cpus {
		rtRow := make([]float64, 0, len(mems))
		costRow := make([]float64, 0, len(mems))
		for _, mem := range mems {
			a := resources.Uniform(groups, resources.Config{CPU: cpu, MemMB: mem})
			res, err := runner.MeanEvaluate(a)
			if err != nil {
				return Fig2Result{}, err
			}
			if res.OOM {
				rtRow = append(rtRow, OOMSentinel)
				costRow = append(costRow, OOMSentinel)
				continue
			}
			rtRow = append(rtRow, res.E2EMS)
			costRow = append(costRow, res.Cost)
			if res.E2EMS <= spec.SLOMS && (out.MinCost < 0 || res.Cost < out.MinCost) {
				out.MinCost = res.Cost
				out.MinCostCPU = cpu
				out.MinCostMem = mem
			}
		}
		out.RuntimeMS = append(out.RuntimeMS, rtRow)
		out.Cost = append(out.Cost, costRow)
	}
	return out, nil
}

// RunFig2AllPool sweeps the three workloads on the pool's workers. Each
// sweep owns its runner and platform, and results land at their workload's
// index, so the output is identical to the sequential sweep a nil pool
// runs.
func RunFig2AllPool(pool *Pool) ([]Fig2Result, error) {
	ws := Workloads()
	out := make([]Fig2Result, len(ws))
	err := pool.Do(len(ws), func(i int) error {
		r, err := RunFig2(ws[i])
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Render prints the two heatmaps for one workload.
func (f Fig2Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig 2 — %s: runtime heatmap (seconds; rows=vCPU, cols=MB)\n", f.Workload)
	f.renderGrid(w, f.RuntimeMS, func(v float64) string { return fmt.Sprintf("%.1f", v/1000) })
	fmt.Fprintf(w, "Fig 2 — %s: cost heatmap (k cost units)\n", f.Workload)
	f.renderGrid(w, f.Cost, func(v float64) string { return fmt.Sprintf("%.0f", v/1000) })
	fmt.Fprintf(w, "cheapest SLO-feasible cell: %.1f vCPU / %.0f MB (cost %.0fk)\n\n",
		f.MinCostCPU, f.MinCostMem, f.MinCost/1000)
}

func (f Fig2Result) renderGrid(w io.Writer, grid [][]float64, fmtCell func(float64) string) {
	t := &table{header: []string{"vCPU\\MB"}}
	for _, m := range f.Mems {
		t.header = append(t.header, fmt.Sprintf("%.0f", m))
	}
	for i, cpu := range f.CPUs {
		row := []string{fmt.Sprintf("%.1f", cpu)}
		for j := range f.Mems {
			v := grid[i][j]
			if v < 0 {
				row = append(row, "OOM")
			} else {
				row = append(row, fmtCell(v))
			}
		}
		t.addRow(row...)
	}
	t.render(w)
}
