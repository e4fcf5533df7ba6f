package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestNewSearcher(t *testing.T) {
	for _, m := range MethodNames {
		s, err := NewSearcher(m, 1)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if s.Name() != m {
			t.Errorf("Name = %s, want %s", s.Name(), m)
		}
	}
	if _, err := NewSearcher("nope", 1); err == nil {
		t.Error("unknown method should error")
	}
}

func TestSuiteCachesRuns(t *testing.T) {
	s := NewSuite(1)
	r1, err := s.Run("chatbot", "MAFF")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Run("chatbot", "MAFF")
	if err != nil {
		t.Fatal(err)
	}
	// Cached: the exact same trace pointer comes back.
	if r1.Outcome.Trace != r2.Outcome.Trace {
		t.Error("suite should cache and reuse runs")
	}
	if r1.Workload != "chatbot" || r1.Method != "MAFF" {
		t.Errorf("run metadata: %+v", r1)
	}
	if _, err := s.Run("nope", "MAFF"); err == nil {
		t.Error("unknown workload should error")
	}
	if _, err := s.Run("chatbot", "nope"); err == nil {
		t.Error("unknown method should error")
	}
}

func TestFig2Chatbot(t *testing.T) {
	r, err := RunFig2("chatbot")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.RuntimeMS) != len(r.CPUs) || len(r.RuntimeMS[0]) != len(r.Mems) {
		t.Fatalf("grid shape wrong")
	}
	// Runtime decreases with CPU (column 0) and is ~flat in memory (row 1).
	col0 := func(i int) float64 { return r.RuntimeMS[i][0] }
	for i := 1; i < len(r.CPUs); i++ {
		if col0(i) >= col0(i-1) {
			t.Errorf("runtime should fall with CPU: %v vs %v", col0(i), col0(i-1))
		}
	}
	row := r.RuntimeMS[1]
	for j := 1; j < len(row); j++ {
		if row[j] < row[0]*0.95 || row[j] > row[0]*1.05 {
			t.Errorf("runtime should be ~flat in memory: %v", row)
		}
	}
	// Cost increases with memory within a row.
	crow := r.Cost[1]
	for j := 1; j < len(crow); j++ {
		if crow[j] <= crow[j-1] {
			t.Errorf("cost should rise with memory: %v", crow)
		}
	}
	// The cheapest feasible cell is the paper's 1 vCPU / 512 MB.
	if r.MinCostCPU != 1 || r.MinCostMem != 512 {
		t.Errorf("chatbot optimum = %v vCPU / %v MB, want 1/512", r.MinCostCPU, r.MinCostMem)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "runtime heatmap") {
		t.Error("render missing heatmap")
	}
}

func TestFig2UnknownWorkload(t *testing.T) {
	if _, err := RunFig2("nope"); err == nil {
		t.Error("unknown workload should error")
	}
}

func TestFig5AndSeries(t *testing.T) {
	// One suite shared across Fig5/6/7 assertions (MAFF only to stay fast
	// would break MethodNames iteration, so run all three on chatbot-scale
	// workloads — the simulator makes this cheap).
	s := NewSuite(2)
	f5, err := RunFig5(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(f5.Cells) != len(Workloads())*len(MethodNames) {
		t.Fatalf("cells = %d", len(f5.Cells))
	}
	for _, c := range f5.Cells {
		if c.Samples <= 0 || c.TotalRuntimeMS <= 0 || c.TotalCost <= 0 {
			t.Errorf("degenerate cell: %+v", c)
		}
	}
	// BO always uses its full 100-sample budget.
	for _, w := range Workloads() {
		c, ok := f5.cell(w, "BO")
		if !ok || c.Samples != 100 {
			t.Errorf("BO on %s should have 100 samples: %+v", w, c)
		}
	}
	// AARC reduces total search cost against BO on every workload.
	for _, w := range Workloads() {
		if f5.ReductionPct(w, "BO", "cost") <= 0 {
			t.Errorf("AARC should beat BO's total sampling cost on %s", w)
		}
	}
	if f5.ReductionPct("nope", "BO", "cost") != 0 {
		t.Error("missing cells should yield 0")
	}

	f6, err := RunFig6(s)
	if err != nil {
		t.Fatal(err)
	}
	f7, err := RunFig7(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range Workloads() {
		for _, m := range MethodNames {
			run, _ := s.Run(w, m)
			if len(f6.Series[w][m]) != run.Outcome.Trace.Len() {
				t.Errorf("fig6 series length mismatch for %s/%s", w, m)
			}
			if len(f7.Series[w][m]) != run.Outcome.Trace.Len() {
				t.Errorf("fig7 series length mismatch for %s/%s", w, m)
			}
		}
	}

	var buf bytes.Buffer
	f5.Render(&buf)
	f6.Render(&buf)
	f7.Render(&buf)
	out := buf.String()
	for _, want := range []string{"Fig 5", "Fig 6", "Fig 7", "AARC vs BO"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestTable2(t *testing.T) {
	s := NewSuite(3)
	r, err := RunTable2(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 9 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.MeanRuntimeMS <= 0 || row.MeanCost <= 0 {
			t.Errorf("degenerate row: %+v", row)
		}
		// Table II headline: every method's final configuration meets the
		// SLO (the paper reports zero violations).
		if row.Violations > Table2ValidationRuns/20 {
			t.Errorf("%s/%s: %d violations", row.Workload, row.Method, row.Violations)
		}
	}
	// AARC is the cheapest method on every workload.
	for _, w := range Workloads() {
		if r.CostReductionPct(w, "BO") <= 0 {
			t.Errorf("AARC should beat BO cost on %s", w)
		}
		if r.CostReductionPct(w, "MAFF") <= 0 {
			t.Errorf("AARC should beat MAFF cost on %s", w)
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Table II") {
		t.Error("render missing title")
	}
}

func TestAblation(t *testing.T) {
	r, err := RunAblationPool(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(Workloads()) * len(AblationVariants())
	if len(r.Rows) != wantRows {
		t.Fatalf("rows = %d, want %d", len(r.Rows), wantRows)
	}
	for _, row := range r.Rows {
		if row.FinalE2EMS > row.SLOMS*1.05 {
			t.Errorf("%s/%s violates SLO: %.0f > %.0f", row.Workload, row.Variant, row.FinalE2EMS, row.SLOMS)
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Ablation") {
		t.Error("render missing title")
	}
}

func TestFig3(t *testing.T) {
	r, err := RunFig3(5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Trace.Len() != 100 {
		t.Errorf("BO probe should run 100 rounds: %d", r.Trace.Len())
	}
	if r.CostReductionPct <= 0 || r.TotalRuntimeHours <= 0 {
		t.Errorf("degenerate fig3: %+v", r)
	}
	// The §II-B observation: the cost series fluctuates notably.
	if r.FluctuationPct < 5 {
		t.Errorf("BO cost series suspiciously stable: %.1f%%", r.FluctuationPct)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Fig 3") {
		t.Error("render missing title")
	}
}

func TestFig8(t *testing.T) {
	r, err := RunFig8(6)
	if err != nil {
		t.Fatal(err)
	}
	wantLen := len(r.Classes) * Fig8RequestsPerClass
	for _, m := range MethodNames {
		if len(r.RuntimeMSSeries[m]) != wantLen {
			t.Errorf("%s series len = %d, want %d", m, len(r.RuntimeMSSeries[m]), wantLen)
		}
	}
	// The paper's §IV-D claims: AARC never violates; MAFF violates under
	// heavy input; AARC is cheaper than both baselines on light input.
	if r.Violations["AARC"] != 0 {
		t.Errorf("AARC violations = %d, want 0", r.Violations["AARC"])
	}
	if r.Violations["MAFF"] == 0 {
		t.Error("MAFF should violate the SLO under heavy input")
	}
	if r.CostOptimizationPct("MAFF", "light") <= 0 || r.CostOptimizationPct("BO", "light") <= 0 {
		t.Error("AARC should be cheapest under light input")
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Fig 8") {
		t.Error("render missing title")
	}
}

func TestMotivation(t *testing.T) {
	r, err := RunMotivation()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(Workloads())*4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// The decoupled reference is feasible, has zero overhead by definition,
	// and every other scheme costs at least as much.
	for _, w := range Workloads() {
		var decoupled *MotivationRow
		for i := range r.Rows {
			row := &r.Rows[i]
			if row.Workload == w && row.Scheme == "decoupled" {
				decoupled = row
			}
		}
		if decoupled == nil || !decoupled.Feasible {
			t.Fatalf("decoupled reference missing/infeasible for %s", w)
		}
		if decoupled.OverPct != 0 {
			t.Errorf("decoupled overhead = %v", decoupled.OverPct)
		}
		for _, row := range r.Rows {
			if row.Workload == w && row.Feasible && row.Cost < decoupled.Cost-1e-6 {
				t.Errorf("%s/%s cheaper than decoupled optimum: %v < %v",
					w, row.Scheme, row.Cost, decoupled.Cost)
			}
		}
	}
	// The §II-A headline: coupled AWS-style configuration carries a
	// substantial overhead on the compute-bound workflows.
	for _, row := range r.Rows {
		if row.Scheme == "aws-coupled" && row.Workload == "ml-pipeline" {
			if !row.Feasible || row.OverPct < 20 {
				t.Errorf("AWS coupling should cost >20%% extra on ML Pipeline: %+v", row)
			}
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Motivation") {
		t.Error("render missing title")
	}
}

func TestScale(t *testing.T) {
	r, err := RunScale(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 || len(r.Rows)%len(MethodNames) != 0 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	sizes := map[int]bool{}
	for _, row := range r.Rows {
		sizes[row.Functions] = true
		if row.Method == "AARC" && row.SLOViolated {
			t.Errorf("AARC violates SLO at %d functions", row.Functions)
		}
		if row.Samples <= 0 || row.FinalCost <= 0 {
			t.Errorf("degenerate row: %+v", row)
		}
	}
	if len(sizes) < 3 {
		t.Errorf("expected several workflow sizes, got %v", sizes)
	}
	// AARC's saving should beat BO's at the largest size (the §II-B
	// dimensionality argument).
	largest := 0
	for s := range sizes {
		if s > largest {
			largest = s
		}
	}
	var aarcSave, boSave float64
	for _, row := range r.Rows {
		if row.Functions != largest {
			continue
		}
		save := (row.BaseCost - row.FinalCost) / row.BaseCost
		switch row.Method {
		case "AARC":
			aarcSave = save
		case "BO":
			boSave = save
		}
	}
	if aarcSave <= boSave {
		t.Errorf("AARC saving (%.2f) should beat BO (%.2f) on the largest workflow", aarcSave, boSave)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Scale") {
		t.Error("render missing title")
	}
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestTableRenderAlignment(t *testing.T) {
	tb := &table{header: []string{"col", "x"}}
	tb.addRow("longvalue", "1")
	var buf bytes.Buffer
	tb.render(&buf)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %v", lines)
	}
	if !strings.HasPrefix(lines[1], "---------") {
		t.Errorf("separator = %q", lines[1])
	}
}
