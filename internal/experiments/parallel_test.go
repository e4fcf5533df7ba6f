package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
)

func TestPoolDo(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := NewPool(workers)
		var calls atomic.Int64
		done := make([]bool, 100)
		if err := p.Do(100, func(i int) error {
			calls.Add(1)
			done[i] = true
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if calls.Load() != 100 {
			t.Errorf("workers=%d: %d calls, want 100", workers, calls.Load())
		}
		for i, d := range done {
			if !d {
				t.Errorf("workers=%d: task %d never ran", workers, i)
			}
		}
	}
}

func TestPoolDoNilAndEmpty(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Errorf("nil pool workers = %d", p.Workers())
	}
	ran := false
	if err := p.Do(1, func(int) error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("nil pool should still run tasks inline")
	}
	if err := p.Do(0, func(int) error { t.Error("no tasks"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestPoolDoReturnsLowestIndexError(t *testing.T) {
	p := NewPool(4)
	errA := errors.New("a")
	err := p.Do(10, func(i int) error {
		if i == 3 || i == 7 {
			return fmt.Errorf("task %d: %w", i, errA)
		}
		return nil
	})
	if err == nil || err.Error() != "task 3: a" {
		t.Errorf("err = %v, want the lowest-index failure", err)
	}
}

// sameTraces compares every recorded sample of two search runs.
func sameTraces(t *testing.T, label string, a, b SearchRun) {
	t.Helper()
	ta, tb := a.Outcome.Trace, b.Outcome.Trace
	if ta.Len() != tb.Len() {
		t.Fatalf("%s: trace lengths %d vs %d", label, ta.Len(), tb.Len())
	}
	if !reflect.DeepEqual(a.Outcome.Best, b.Outcome.Best) {
		t.Errorf("%s: best assignments differ: %v vs %v", label, a.Outcome.Best, b.Outcome.Best)
	}
	for i := range ta.Samples {
		sa, sb := ta.Samples[i], tb.Samples[i]
		if sa.E2EMS != sb.E2EMS || sa.Cost != sb.Cost || sa.OOM != sb.OOM ||
			sa.Accepted != sb.Accepted || sa.Note != sb.Note ||
			!reflect.DeepEqual(sa.Assignment, sb.Assignment) {
			t.Fatalf("%s: sample %d differs:\n  seq: %+v\n  par: %+v", label, i, sa, sb)
		}
	}
}

// TestSuiteParallelMatchesSequential is the harness's identical-output
// guarantee: a pooled RunAll must produce exactly the traces a sequential
// one does, per (workload, method) cell.
func TestSuiteParallelMatchesSequential(t *testing.T) {
	seq := NewSuite(11)
	if err := seq.RunAll(); err != nil {
		t.Fatal(err)
	}
	par := NewSuite(11)
	par.Pool = NewPool(4)
	if err := par.RunAll(); err != nil {
		t.Fatal(err)
	}
	for _, w := range Workloads() {
		for _, m := range MethodNames {
			a, err := seq.Run(w, m)
			if err != nil {
				t.Fatal(err)
			}
			b, err := par.Run(w, m)
			if err != nil {
				t.Fatal(err)
			}
			sameTraces(t, w+"/"+m, a, b)
		}
	}
}

func TestFig2ParallelMatchesSequential(t *testing.T) {
	seq, err := RunFig2AllPool(nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunFig2AllPool(NewPool(3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Error("parallel Fig2 sweep should be identical to sequential")
	}
}

func TestAblationParallelMatchesSequential(t *testing.T) {
	seq, err := RunAblationPool(12, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunAblationPool(12, NewPool(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Error("parallel ablation sweep should be identical to sequential")
	}
}

func TestTable2ParallelMatchesSequential(t *testing.T) {
	seq := NewSuite(13)
	rs, err := RunTable2(seq)
	if err != nil {
		t.Fatal(err)
	}
	par := NewSuite(13)
	par.Pool = NewPool(4)
	rp, err := RunTable2(par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs, rp) {
		t.Error("parallel Table II should be identical to sequential")
	}
}
