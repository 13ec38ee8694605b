// Command e2ebench is the repository's end-to-end and per-layer benchmark.
//
// One invocation runs one named workload for a fixed wall time and prints,
// as its last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (e2eMetrics), measured
// with no tracing. With -trace 1 the benchmark re-runs the workload's
// calls into each layer's public functions under in-memory spans, writes
// the spans to -out when it ends, and reports the per-layer metrics
// (layerMetrics) derived from them. The lines before the result describe
// the environment and name every metric with its unit.
//
// The workloads, why each was chosen, and which end-to-end metric each
// layer metric should move are recorded in NOTES.md beside this file.
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload theta-paper --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are what a user of the scheduler sees; every workload reports
// every one of them (NOTES.md gives each its per-workload meaning).
var e2eMetrics = []metricDef{
	{"jobs_per_cpu_s", "1/s"},
	{"allocs_per_job", "count"},
	{"mean_comm_cost", "eq6"},
	{"mean_turnaround_h", "h"},
	{"setup_s", "s"},
}

// layerMetrics are the traced run's per-layer figures. A layer a workload
// does not exercise reports 0.
var layerMetrics = []metricDef{
	{"workload.synth_ms", "ms"},
	{"cluster.layout_ms", "ms"},
	{"core.select_us_p50", "us"},
	{"core.select_us_p99", "us"},
	{"core.default_select_us_p50", "us"},
	{"core.select_calls", "count"},
	{"costmodel.cost_cold_us_p50", "us"},
	{"costmodel.cost_warm_us_p50", "us"},
	{"costmodel.compile_share", "ratio"},
	{"costmodel.allocs_per_cold_call", "count"},
	{"costmodel.agg_frac", "ratio"},
	{"cluster.allocate_us_p50", "us"},
	{"cluster.release_us_p50", "us"},
	{"cluster.allocate_failed", "count"},
	{"search.improve_ms_p50", "ms"},
	{"search.improve_ms_p99", "ms"},
	{"search.engine_us_p50", "us"},
	{"search.moves_per_ms", "1/ms"},
	{"search.evaluated_per_job", "count"},
	{"search.accept_ratio", "ratio"},
	{"search.improve_ratio", "ratio"},
	{"sim.run_ms_p50", "ms"},
	{"sim.residual_share", "ratio"},
	{"sim.replay_match_frac", "ratio"},
	{"daemon.engine_submit_us_p50", "us"},
	{"daemon.engine_submit_us_p99", "us"},
	{"daemon.engine_status_us_p99", "us"},
	{"daemon.server_wall_p99_ms", "ms"},
	{"daemon.wire_us_p50", "us"},
	{"daemon.busy_frac", "ratio"},
	{"daemon.queue_len_end", "count"},
	{"gen.lag_ms_p99", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// runConfig is what every workload receives.
type runConfig struct {
	name    string
	seed    int64
	budget  time.Duration // wall time the measurement phase aims for
	trace   bool
	spanDir string // where the traced run writes its spans
}

// report is one workload run's outcome. Values are keyed by metric name;
// problems lists every correctness failure found (each also counted in
// failed).
type report struct {
	attempted int
	failed    int
	busy      int // busy replies, each followed by sending the op again
	values    map[string]float64
	problems  []string
	// info lines describe the run's inputs and secondary figures; they are
	// printed before the result.
	info []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

type workloadDef struct {
	name string
	// procs is the GOMAXPROCS the workload runs with; 0 keeps the default.
	procs int
	run   func(runConfig) (*report, error)
}

// The batch workloads run on one goroutine with GOMAXPROCS 1, so the
// garbage collector shares that goroutine's CPU. With a second, idle P the
// runtime runs idle-priority mark workers there, whose CPU time counts in
// the process's but varies from run to run (NOTES.md). serve-mixed keeps
// the default: with one P its CPU time per job varied more, not less.
var workloads = []workloadDef{
	{"theta-paper", 1, func(rc runConfig) (*report, error) { return runBatch(thetaPaper, rc) }},
	{"wide-4096", 1, func(rc runConfig) (*report, error) { return runBatch(wide4096, rc) }},
	{"theta-anneal", 1, func(rc runConfig) (*report, error) { return runBatch(thetaAnneal, rc) }},
	{"serve-mixed", 0, func(rc runConfig) (*report, error) { return runServe(rc, serveSatOps) }},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: theta-paper, wide-4096, theta-anneal or serve-mixed")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "wall seconds the measurement phase runs")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	out := flag.String("out", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	rc := runConfig{
		name: *name, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, spanDir: *out,
	}
	res, err := execute(*wl, rc, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs one workload and prints its environment, metric lines and
// the result object (last). An error means no result was printed.
func execute(wl workloadDef, rc runConfig, w io.Writer) (*result, error) {
	if wl.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(wl.procs))
	}
	env := environment(wl.name, rc)
	rep, err := wl.run(rc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	defs := e2eMetrics
	if rc.trace {
		defs = layerMetrics
	}
	res := &result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("%s: no operation attempted", wl.name)
	}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", wl.name, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	envLine, err := json.Marshal(env)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "# env %s\n", envLine)
	for _, line := range rep.info {
		fmt.Fprintf(w, "# %s\n", line)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(w, "# FAIL %s\n", p)
	}
	fmt.Fprintf(w, "# %s failed_frac %.6g ratio (%d of %d; %d busy replies, each op sent again)\n", wl.name,
		float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted, rep.busy)
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "# %s %s %.6g %s\n", wl.name, n, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return res, nil
}
