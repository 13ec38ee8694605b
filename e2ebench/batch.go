package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// batchSpec is one batch workload: continuous runs (sim.RunContinuous) of
// seeded traces under a list of algorithms. One cell is one trace under one
// algorithm; one round runs every cell once.
type batchSpec struct {
	preset   workload.Preset
	traces   int // distinct traces per seed
	jobs     int // jobs per trace
	algs     []core.Algorithm
	headline core.Algorithm // algorithm the quality metrics describe
	budget   int            // core.Anneal budget
}

// The paper's tagging, shared with BenchmarkRunContinuous: 90% of jobs are
// communication-intensive RD jobs spending 70% of their time communicating.
var paperMix = collective.SinglePattern(collective.RD, 0.7)

// thetaPaper is the paper's continuous runs on Theta (12 leaves × 366
// nodes) under all four algorithms.
var thetaPaper = batchSpec{
	preset: workload.Theta, traces: 32, jobs: 300,
	algs: core.Algorithms, headline: core.Adaptive,
}

// wide4096 is the dragonfly-scale shape of BenchmarkJobCost4096LeavesWide
// (64 pods × 64 leaves × 2 nodes) with jobs up to 2048 nodes: the only
// workload past the 128-leaf sparse pair cache whose wide candidates take
// the subtree-aggregated kernel.
var wide4096 = batchSpec{
	preset: workload.Preset{
		Name: "Wide4096",
		NewTopology: func() *topology.Topology {
			return topology.MustGenerate(topology.Spec{NodesPerLeaf: 2, Fanouts: []int{64, 64}})
		},
		MaxJobNodes: 2048,
		Pow2Frac:    0.90,
		Utilization: 0.85,
	},
	traces: 24, jobs: 100,
	algs: []core.Algorithm{core.Default, core.Adaptive}, headline: core.Adaptive,
}

// thetaAnneal is Theta under the annealing allocator at budget 256, where
// search move pricing dominates.
var thetaAnneal = batchSpec{
	preset: workload.Theta, traces: 48, jobs: 50,
	algs: []core.Algorithm{core.Anneal}, headline: core.Anneal, budget: 256,
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 11

// batchInputs is one set-up's product.
type batchInputs struct {
	topo   *topology.Topology
	traces []workload.Trace
	synth  time.Duration // trace synthesis and tagging
	layout time.Duration // cluster.LayoutOf on a fresh topology
	setup  times         // the whole set-up
}

// times is one measured span of work in wall and process CPU time.
type times struct{ wall, cpu time.Duration }

// stopwatch starts a measurement of wall and process CPU time.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuTime()} }

func (w stopwatch) elapsed() times { return times{time.Since(w.wall), cpuTime() - w.cpu} }

// traceSeed derives the k-th trace's seed from the run seed.
func traceSeed(seed int64, k int) int64 { return seed*1000003 + int64(k)*7919 + 1 }

func setupBatch(spec batchSpec, seed int64) batchInputs {
	sw := startWatch()
	in := batchInputs{topo: spec.preset.NewTopology()}
	t1 := time.Now()
	cluster.LayoutOf(in.topo)
	in.layout = time.Since(t1)
	t2 := time.Now()
	for k := 0; k < spec.traces; k++ {
		s := traceSeed(seed, k)
		tr := spec.preset.Synthesize(spec.jobs, s).MustTag(0.9, paperMix, s+1)
		tr.Name = fmt.Sprintf("%s-%d", spec.preset.Name, s)
		in.traces = append(in.traces, tr)
	}
	in.synth = time.Since(t2)
	in.setup = sw.elapsed()
	return in
}

// cell is one (trace, algorithm) pair and what its first run produced.
type cell struct {
	trace  workload.Trace
	cfg    sim.Config
	digest uint64
	res    *sim.Result
	// cpuMs and runMs are the cell's RunContinuous times in process CPU
	// and wall time, readMs its check times, one per repetition.
	cpuMs, runMs, readMs []float64
}

func (s batchSpec) cells(in batchInputs) []*cell {
	var cs []*cell
	for _, tr := range in.traces {
		for _, a := range s.algs {
			cs = append(cs, &cell{trace: tr, cfg: sim.Config{
				Topology: in.topo, Algorithm: a, AnnealBudget: s.budget,
			}})
		}
	}
	return cs
}

// digest hashes the per-job outcomes a fault-free run produces: ID, size,
// submit, start and end times, base and modified runtimes, costs and ratio.
func digest(res *sim.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, j := range res.Jobs {
		put(uint64(j.ID))
		put(uint64(j.Nodes))
		for _, f := range []float64{j.Submit, j.Start, j.End, j.BaseRun, j.Exec, j.CommCost, j.RefCost, j.CostRatio} {
			put(math.Float64bits(f))
		}
	}
	return h.Sum64()
}

// checkCell is the correctness check every cell run passes: the program's
// own audit of the schedule, and (after the first run) a digest identical
// to the first run's.
func checkCell(c *cell, res *sim.Result) error {
	if err := sim.ValidateResultConfig(res, c.trace, c.cfg); err != nil {
		return fmt.Errorf("%s/%s: %w", c.trace.Name, c.cfg.Algorithm, err)
	}
	if d := digest(res); c.res == nil {
		c.digest, c.res = d, res
	} else if d != c.digest {
		return fmt.Errorf("%s/%s: result digest %x differs from the first run's %x",
			c.trace.Name, c.cfg.Algorithm, d, c.digest)
	}
	return nil
}

// quality returns the headline algorithm's mean Eq. 6 cost over
// communication-intensive jobs and its mean turnaround in hours, pooled
// over every trace.
func quality(cs []*cell, headline core.Algorithm) (cost, turnaroundH float64) {
	var costSum, turnSum float64
	var comm, jobs int
	for _, c := range cs {
		if c.cfg.Algorithm != headline || c.res == nil {
			continue
		}
		for _, j := range c.res.Jobs {
			if j.Comm {
				costSum += j.CommCost
				comm++
			}
			turnSum += j.Turnaround()
			jobs++
		}
	}
	return ratio(costSum, float64(comm)), ratio(turnSum, float64(jobs)) / 3600
}

// setupStats are a run's repeated set-ups: the whole set-up in CPU and
// wall time, and its synthesis and layout parts.
type setupStats struct{ cpuS, wallS, synthMs, layoutMs []float64 }

func (st *setupStats) add(whole times, synth, layout time.Duration) {
	st.cpuS = append(st.cpuS, whole.cpu.Seconds())
	st.wallS = append(st.wallS, whole.wall.Seconds())
	st.synthMs = append(st.synthMs, ms(synth))
	st.layoutMs = append(st.layoutMs, ms(layout))
}

// report records setup_s, the median set-up CPU time, and the wall median
// beside it.
func (st *setupStats) report(rep *report, name string) {
	rep.values["setup_s"] = median(st.cpuS)
	rep.infof("%s setup wall median %.6g s over %d set-ups (not gated)", name, median(st.wallS), len(st.wallS))
}

func runBatch(spec batchSpec, rc runConfig) (*report, error) {
	rep := newReport()
	var in batchInputs
	var setups setupStats
	for i := 0; i < setupReps; i++ {
		in = batchInputs{}
		runtime.GC() // each set-up starts from a collected heap
		in = setupBatch(spec, rc.seed)
		setups.add(in.setup, in.synth, in.layout)
	}
	rep.infof("inputs %d traces x %d jobs (seeds %d..%d), algorithms %v, anneal budget %d, topology %d leaves x %d nodes",
		len(in.traces), spec.jobs, traceSeed(rc.seed, 0), traceSeed(rc.seed, spec.traces-1),
		spec.algs, spec.budget, in.topo.NumLeaves(), in.topo.NumNodes()/in.topo.NumLeaves())
	cs := spec.cells(in)
	if rc.trace {
		return rep, traceBatch(rc, cs, rep, median(setups.synthMs), median(setups.layoutMs))
	}

	var rates []float64
	var allocs uint64
	var placed int
	deadline := time.Now().Add(rc.budget)
	// Round 0 fills the heap and the program's caches and records each
	// cell's digest; it is checked but not timed (its rounds ran 5-20%
	// slower than later ones on wide-4096). At least two timed rounds
	// follow, so every cell's digest is compared with a repetition; then
	// rounds while the next one would mostly fit.
	var last time.Duration
	for round := 0; round < 3 || time.Until(deadline) > last/2; round++ {
		timed := round > 0
		roundStart := time.Now()
		var roundCPU time.Duration
		roundJobs := 0
		for _, c := range cs {
			rep.attempted++
			a0 := heapAllocs()
			sw := startWatch()
			res, err := sim.RunContinuous(c.cfg, c.trace)
			d := sw.elapsed()
			if timed {
				allocs += heapAllocs() - a0
			}
			if err != nil {
				rep.fail("%s/%s: %v", c.trace.Name, c.cfg.Algorithm, err)
				continue
			}
			t1 := time.Now()
			err = checkCell(c, res)
			read := time.Since(t1)
			if err != nil {
				rep.fail("%v", err)
				continue
			}
			if !timed {
				continue
			}
			c.readMs = append(c.readMs, ms(read))
			c.cpuMs = append(c.cpuMs, ms(d.cpu))
			c.runMs = append(c.runMs, ms(d.wall))
			roundCPU += d.cpu
			roundJobs += len(res.Jobs)
		}
		last = time.Since(roundStart)
		if timed {
			placed += roundJobs
			rates = append(rates, ratio(float64(roundJobs), roundCPU.Seconds()))
		}
	}
	// Each cell's time is the median of its repetitions, so a stall that
	// hits some repetitions does not decide the run; the throughput is
	// taken over those per-cell medians of process CPU time.
	var cellWall, cellRead []float64
	var sumCPU, sumWall float64
	jobsPerRound := 0
	for _, c := range cs {
		if len(c.cpuMs) == 0 {
			continue
		}
		sumCPU += median(append([]float64(nil), c.cpuMs...))
		w := median(append([]float64(nil), c.runMs...))
		cellWall = append(cellWall, w)
		sumWall += w
		cellRead = append(cellRead, median(append([]float64(nil), c.readMs...)))
		jobsPerRound += len(c.trace.Jobs)
	}
	cost, turn := quality(cs, spec.headline)
	rep.infof("%d timed rounds after one untimed, %d jobs placed in them; per-round rates (jobs per CPU s) %.0f", len(rates), placed, rates)
	rep.infof("%s not gated: jobs_per_s %.6g 1/s, cell p50 %.6g ms, cell p90 %.6g ms, read p90 %.6g ms (wall time)",
		rc.name, ratio(float64(jobsPerRound), sumWall/1000),
		percentile(cellWall, 0.5), percentile(cellWall, 0.9), percentile(cellRead, 0.9))
	rep.values["jobs_per_cpu_s"] = ratio(float64(jobsPerRound), sumCPU/1000)
	rep.values["allocs_per_job"] = ratio(float64(allocs), float64(placed))
	rep.values["mean_comm_cost"] = cost
	rep.values["mean_turnaround_h"] = turn
	setups.report(rep, rc.name)
	return rep, nil
}
