// Command servebench is the repository's serving benchmark. It drives
// the aarcd HTTP API — the facade's NewService and NewServiceHandler,
// which is what cmd/aarcd mounts, with aarcd's default settings — over a
// loopback listener in the same process, with a closed loop of one
// connection per CPU, and checks every response.
//
// Usage (from the repository root):
//
//	go run ./servebench --workload warm-hit --seed 1 --seconds 20 --trace 0
//	go run ./servebench --workload large-spec --smoke
//
// With --trace 0 it prints the end-to-end metrics of the workload; with
// --trace 1 it runs an untraced and then a traced single-connection
// phase, writes the traced phase's spans to --spans, and prints the
// per-layer metrics computed from that file. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. A failed output check makes the exit code 1.
//
// README.md in this directory lists the workloads, the metrics, and the
// regimes the benchmark deliberately leaves out.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"aarc"
)

// aarcd's defaults, shared by the served service and the replays.
const (
	serviceMethod    = "aarc"
	serviceSeed      = 42
	serviceHostCores = 96
	serviceCacheSize = 128
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	phase    time.Duration // length of the timed phase
	setups   int           // set-ups per run; setup_s is their median
	trace    bool
	conns    int
	spans    string // span file of the traced phase
}

// output is the result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// deadline bounds a whole run: the benchmark must exit within 180 s.
const deadline = 170 * time.Second

func main() {
	var (
		cfg     config
		seconds = flag.Int("seconds", 15, "length of the timed phase in seconds")
		traced  = flag.Int("trace", 0, "1: run the traced phase and report per-layer metrics")
		smoke   = flag.Bool("smoke", false, "short run: 300 ms phases and a single set-up")
	)
	flag.StringVar(&cfg.workload, "workload", "warm-hit", "warm-hit, cold-search or large-spec")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: drives spec generation, body permutations and request seeds")
	flag.StringVar(&cfg.spans, "spans", "", "span file of the traced run (default .bench_build/spans/spans-<workload>-<seed>.jsonl)")
	flag.Parse()

	cfg.phase = time.Duration(*seconds) * time.Second
	cfg.trace = *traced == 1
	cfg.conns = runtime.NumCPU()
	cfg.setups = 15
	if cfg.workload == "large-spec" {
		cfg.setups = 3
	}
	if *smoke {
		cfg.phase, cfg.setups = 300*time.Millisecond, 1
	}
	if cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	}
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "servebench: run exceeded %v\n", deadline)
		os.Exit(1)
	})

	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(out.Metrics))
	for name := range out.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := out.Metrics[name]
		fmt.Printf("%-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// run performs one invocation. An error means the benchmark could not
// run (no result line); failed output checks are reported in the output.
func run(cfg config) (output, error) {
	if cfg.trace {
		return runTraced(cfg)
	}
	return runUntraced(cfg)
}

// setUp generates the workload's inputs, starts a service and sends the
// warm-up requests: the work setup_s measures.
func setUp(cfg config, conns int, extra ...aarc.Option) (workload, *env, error) {
	w, err := newWorkload(cfg.workload, cfg.seed, conns)
	if err != nil {
		return nil, nil, err
	}
	opts := append(append(serviceOptions(), w.options()...), extra...)
	e, err := startEnv(opts, conns)
	if err != nil {
		return nil, nil, err
	}
	if err := w.setup(e); err != nil {
		e.close()
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	return w, e, nil
}

func runUntraced(cfg config) (output, error) {
	var (
		w      workload
		e      *env
		setups []float64
	)
	for k := 0; k < cfg.setups; k++ {
		if e != nil {
			if err := e.close(); err != nil {
				return output{}, err
			}
		}
		runtime.GC()
		start := time.Now()
		var err error
		if w, e, err = setUp(cfg, cfg.conns); err != nil {
			return output{}, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	reportSLOFailures(cfg, w)
	fmt.Fprintf(os.Stderr, "servebench: set-ups %.4f s\n", setups)
	ph, checkErr := measure(e, w, cfg.conns, cfg.phase)
	if err := e.close(); err != nil {
		return output{}, err
	}
	ph.logWindows()
	out := ph.output(checkErr)
	out.Metrics = ph.endToEnd()
	out.Metrics["setup_s"] = metric{median(setups), "s"}
	return out, nil
}

// runTraced runs three phases, each on a fresh set-up: the untraced
// closed loop of the end-to-end run, for the client and runtime metrics;
// then an untraced and a traced single connection for half as long each,
// whose round trips give the tracing overhead.
func runTraced(cfg config) (output, error) {
	var phases [2]phase
	var out output
	for i, conns := range []int{cfg.conns, 1} {
		w, e, err := setUp(cfg, conns)
		if err != nil {
			return output{}, err
		}
		d := cfg.phase / 2
		if i == 0 {
			d = cfg.phase
		}
		ph, checkErr := measure(e, w, conns, d)
		if err := e.close(); err != nil {
			return output{}, err
		}
		phases[i] = ph
		out = out.join(ph.output(checkErr))
	}

	rec := newRecorder()
	w, e, err := setUp(cfg, 1, aarc.WithStore(&timingStore{inner: aarc.NewMemoryStore(serviceCacheSize), rec: rec}))
	if err != nil {
		return output{}, err
	}
	reportSLOFailures(cfg, w)
	rp := &replayer{rec: rec, svc: e.svc}
	if cfg.workload == "large-spec" {
		rp.maxSample = largeCap
	}
	if rp.miss, err = aarc.NewService(append(serviceOptions(), w.options()...)...); err != nil {
		e.close()
		return output{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.phase/2)
	rec.on.Store(true)
	t := tracedLoop(ctx, e, w, rp)
	rec.on.Store(false)
	cancel()
	checkErr := w.finish(e, t.total().all)
	rp.miss.Close()
	if err := e.close(); err != nil {
		return output{}, err
	}
	out = out.join(phase{t: t}.output(checkErr))
	if err := writeSpans(cfg.spans, rec.spans); err != nil {
		return output{}, err
	}
	spans, err := readSpans(cfg.spans)
	if err != nil {
		return output{}, err
	}

	loop, single := phases[0], phases[1]
	tot, one := loop.t.total(), single.t.total()
	n := float64(tot.all)
	if tot.ok < minTail {
		fmt.Fprintf(os.Stderr, "servebench: %d successes: too few for a p99 with 10 samples beyond it\n", tot.ok)
	}
	out.Metrics = perLayer(spans, baseline{
		throughput:    loop.throughput(),
		p90MS:         loop.p90(),
		p99MS:         loop.p99(),
		allocBytes:    ratio(loop.allocBytes, n),
		gcCyclesPerK:  ratio(loop.gcCycles*1e3, n),
		gcCPUMSPerReq: ratio(loop.gcCPUSeconds*1e3, n),
		p50US:         one.lat.quantileMS(0.5) * 1e3,
		errorRate:     ratio(float64(out.Failed), float64(out.Attempted)),
		sloFailed:     len(w.sloFailures()),
	})
	return out, nil
}

// reportSLOFailures names the families of the generated specs the
// service could not configure: they are left out of the timed mix, and
// counted.
func reportSLOFailures(cfg config, w workload) {
	if failed := w.sloFailures(); len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "servebench: seed %d: %d specs (%v@%d) fail with %q and are left out of the timed mix\n",
			cfg.seed, len(failed), failed, largeSpecNodes, sloError)
	}
}

// output reports the phase's counts; checkErr is the workload's
// whole-phase check.
func (ph phase) output(checkErr error) output {
	for _, err := range ph.t.errs {
		fmt.Fprintln(os.Stderr, "servebench: check failed:", err)
	}
	failed := ph.t.failed
	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "servebench: check failed:", checkErr)
		failed++
	}
	return output{
		Correct:   failed == 0,
		Attempted: max(ph.t.total().all, 1),
		Failed:    failed,
	}
}

// join adds the counts of another phase of the same run.
func (o output) join(p output) output {
	if o.Attempted == 0 {
		return p
	}
	o.Correct = o.Correct && p.Correct
	o.Attempted += p.Attempted
	o.Failed += p.Failed
	return o
}
