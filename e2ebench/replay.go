package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/search"
	"repro/internal/sim"
)

// spanKeep bounds how many spans a traced run keeps for its dump.
const spanKeep = 100000

// replayStats counts what a traced replay saw.
type replayStats struct {
	priced, matched     int // headline candidates priced; equal to the run's CommCost
	candidates, agg     int // candidates priced; on the aggregated kernel
	allocFailed         int
	coldCalls           int
	coldAllocs          uint64
	improveCalls        int
	evaluated, accepted int
	improved            int
}

// replayEvent is one start or completion of a finished run.
type replayEvent struct {
	t        float64
	complete bool
	idx      int
}

// replayCell re-executes a finished cell's starts and completions in time
// order (completions first at equal times) through the public calls
// sim.PlaceJobMapped and the engine make: Selector.Select for the
// algorithm and for the default reference, costmodel.CandidateCostMode,
// cluster.State.Allocate and Release. Each call is a span under a per-job
// root span. The first CandidateCostMode call on a node list is the cold
// one; an immediate repeat is the warm one. With countAllocs the cold
// calls' heap allocations are counted (outside the spans). Anneal cells
// also time search.NewEngine and search.Improve on the adaptive seed.
func replayCell(c *cell, rec *recorder, countAllocs bool, rs *replayStats) error {
	sel, err := core.NewWith(c.cfg.Algorithm, core.Options{
		AnnealBudget: c.cfg.AnnealBudget, AnnealSeed: c.cfg.AnnealSeed,
	})
	if err != nil {
		return err
	}
	defSel := core.MustNew(core.Default)
	seedSel := core.MustNew(core.Adaptive)
	st := cluster.New(c.cfg.Topology)

	evs := make([]replayEvent, 0, 2*len(c.res.Jobs))
	for i, jr := range c.res.Jobs {
		evs = append(evs, replayEvent{jr.Start, false, i}, replayEvent{jr.End, true, i})
	}
	sort.Slice(evs, func(a, b int) bool {
		x, y := evs[a], evs[b]
		if x.t != y.t {
			return x.t < y.t
		}
		if x.complete != y.complete {
			return x.complete
		}
		return x.idx < y.idx
	})
	allocated := make([]bool, len(c.res.Jobs))
	for _, ev := range evs {
		j := c.trace.Jobs[ev.idx]
		id := int64(j.ID)
		if ev.complete {
			if allocated[ev.idx] {
				h := rec.begin("cluster.release", id, -1)
				err := st.Release(j.ID)
				rec.end(h)
				if err != nil {
					return fmt.Errorf("replay release %d: %w", j.ID, err)
				}
			}
			continue
		}
		pattern := collective.RD
		if p, ok := j.Mix.PrimaryPattern(); ok {
			pattern = p
		}
		req := core.Request{Job: j.ID, Nodes: j.Nodes, Class: j.Class, Pattern: pattern}
		root := rec.begin("replay.job", id, -1)
		h := rec.begin("core.select", id, root)
		nodes, err := sel.Select(st, req)
		rec.end(h)
		if err != nil {
			// The replay's state has drifted from the run's; the job
			// cannot start here.
			rs.allocFailed++
			rec.end(root)
			continue
		}
		if j.Class == cluster.CommIntensive && len(j.Mix.Comms) > 0 && j.Nodes > 1 {
			h = rec.begin("core.default_select", id, root)
			defNodes, err := defSel.Select(st, req)
			rec.end(h)
			if err != nil {
				return fmt.Errorf("replay default select %d: %w", j.ID, err)
			}
			for _, cm := range j.Mix.Comms {
				costX, err := coldCost(c, rec, countAllocs, rs, st, root, nodes, j.ID, j.Class, cm.Pattern)
				if err != nil {
					return err
				}
				if _, err := coldCost(c, rec, countAllocs, rs, st, root, defNodes, j.ID, j.Class, cm.Pattern); err != nil {
					return err
				}
				h = rec.begin("costmodel.cost_warm", id, root)
				_, err = costmodel.CandidateCostMode(st, j.ID, j.Class, nodes, cm.Pattern, c.cfg.CostMode)
				rec.end(h)
				if err != nil {
					return fmt.Errorf("replay warm cost %d: %w", j.ID, err)
				}
				if cm.Pattern == pattern {
					rs.priced++
					if costX == c.res.Jobs[ev.idx].CommCost {
						rs.matched++
					}
				}
				for _, cand := range [][]int{nodes, defNodes} {
					steps, err := costmodel.ScheduleFor(cm.Pattern, len(cand))
					if err != nil {
						return err
					}
					agg, err := costmodel.ScheduleAggregated(st, cand, steps)
					if err != nil {
						return err
					}
					rs.candidates++
					if agg {
						rs.agg++
					}
				}
			}
			if c.cfg.Algorithm == core.Anneal {
				if err := replaySearch(c, rec, rs, st, seedSel, req, root); err != nil {
					return err
				}
			}
		}
		h = rec.begin("cluster.allocate", id, root)
		err = st.Allocate(j.ID, j.Class, nodes)
		rec.end(h)
		rec.end(root)
		if err != nil {
			rs.allocFailed++
			continue
		}
		allocated[ev.idx] = true
		rec.trim()
	}
	return nil
}

// coldCost is the first CandidateCostMode call on a node list.
func coldCost(c *cell, rec *recorder, countAllocs bool, rs *replayStats, st *cluster.State,
	root int32, nodes []int, job cluster.JobID, class cluster.Class, p collective.Pattern) (float64, error) {
	var a0 uint64
	if countAllocs {
		a0 = heapAllocs()
	}
	h := rec.begin("costmodel.cost_cold", int64(job), root)
	cost, err := costmodel.CandidateCostMode(st, job, class, nodes, p, c.cfg.CostMode)
	rec.end(h)
	if countAllocs {
		rs.coldAllocs += heapAllocs() - a0
		rs.coldCalls++
	}
	if err != nil {
		return 0, fmt.Errorf("replay cold cost %d: %w", job, err)
	}
	return cost, nil
}

// replaySearch times search.NewEngine and search.Improve on the adaptive
// seed for one anneal placement.
func replaySearch(c *cell, rec *recorder, rs *replayStats, st *cluster.State,
	seedSel core.Selector, req core.Request, root int32) error {
	seed, err := seedSel.Select(st, req)
	if err != nil {
		return fmt.Errorf("replay anneal seed %d: %w", req.Job, err)
	}
	id := int64(req.Job)
	h := rec.begin("search.engine", id, root)
	_, err = search.NewEngine(st, req.Job, req.Class, seed, req.Pattern)
	rec.end(h)
	if err != nil {
		return fmt.Errorf("replay engine %d: %w", req.Job, err)
	}
	h = rec.begin("search.improve", id, root)
	_, s, err := search.Improve(st, req.Job, req.Class, seed, req.Pattern,
		search.Config{Budget: c.cfg.AnnealBudget, Seed: c.cfg.AnnealSeed})
	rec.end(h)
	if err != nil {
		return fmt.Errorf("replay improve %d: %w", req.Job, err)
	}
	rs.improveCalls++
	rs.evaluated += s.Evaluated
	rs.accepted += s.Accepted
	if s.BestCost < s.SeedCost {
		rs.improved++
	}
	return nil
}

// traceBatch is a batch workload's traced run. Each pass runs every cell
// untraced (sim.run_ms), then replays it with the recorder off and on
// (alternating which goes first) for the overhead figure; the first pass
// also replays once counting the cold cost calls' allocations.
func traceBatch(rc runConfig, cs []*cell, rep *report, synthMs, layoutMs float64) error {
	on := newRecorder(true, spanKeep)
	off := newRecorder(false, 0)
	var rs, untraced replayStats
	var runMs []float64
	var runTotal, plainTotal, tracedTotal time.Duration
	passes := 0
	deadline := time.Now().Add(rc.budget)
	for ; passes < 1 || time.Now().Before(deadline); passes++ {
		for i, c := range cs {
			rep.attempted++
			t0 := time.Now()
			res, err := sim.RunContinuous(c.cfg, c.trace)
			d := time.Since(t0)
			if err == nil {
				err = checkCell(c, res)
			}
			if err != nil {
				rep.fail("%v", err)
				continue
			}
			runMs = append(runMs, ms(d))
			runTotal += d
			order := []*recorder{off, on}
			if (passes+i)%2 == 1 {
				order = []*recorder{on, off}
			}
			for _, r := range order {
				stats := &untraced
				if r.on {
					stats = &rs
				}
				t1 := time.Now()
				err := replayCell(c, r, false, stats)
				if r.on {
					tracedTotal += time.Since(t1)
				} else {
					plainTotal += time.Since(t1)
				}
				if err != nil {
					rep.fail("%s/%s replay: %v", c.trace.Name, c.cfg.Algorithm, err)
				}
			}
			if passes == 0 {
				var as replayStats
				if err := replayCell(c, newRecorder(false, 0), true, &as); err != nil {
					rep.fail("%s/%s replay: %v", c.trace.Name, c.cfg.Algorithm, err)
				}
				rs.coldCalls += as.coldCalls
				rs.coldAllocs += as.coldAllocs
			}
		}
	}
	rep.infof("%d traced passes, %d spans kept", passes, len(on.spans))
	if err := on.dump(rc.spanDir, rc.name+".tsv"); err != nil {
		return err
	}
	covered := time.Duration(0)
	for _, n := range []string{"core.select", "core.default_select", "costmodel.cost_cold", "cluster.allocate", "cluster.release"} {
		covered += on.total(n)
	}
	cold := on.pct("costmodel.cost_cold", 0.5, time.Microsecond)
	warm := on.pct("costmodel.cost_warm", 0.5, time.Microsecond)
	v := rep.values
	v["workload.synth_ms"] = synthMs
	v["cluster.layout_ms"] = layoutMs
	v["core.select_us_p50"] = on.pct("core.select", 0.5, time.Microsecond)
	v["core.select_us_p99"] = on.pct("core.select", 0.99, time.Microsecond)
	v["core.default_select_us_p50"] = on.pct("core.default_select", 0.5, time.Microsecond)
	v["core.select_calls"] = ratio(float64(on.count("core.select")), float64(passes))
	v["costmodel.cost_cold_us_p50"] = cold
	v["costmodel.cost_warm_us_p50"] = warm
	v["costmodel.compile_share"] = ratio((cold-warm)*float64(on.count("costmodel.cost_cold")), us(tracedTotal))
	v["costmodel.allocs_per_cold_call"] = ratio(float64(rs.coldAllocs), float64(rs.coldCalls))
	v["costmodel.agg_frac"] = ratio(float64(rs.agg), float64(rs.candidates))
	v["cluster.allocate_us_p50"] = on.pct("cluster.allocate", 0.5, time.Microsecond)
	v["cluster.release_us_p50"] = on.pct("cluster.release", 0.5, time.Microsecond)
	v["cluster.allocate_failed"] = float64(rs.allocFailed)
	v["search.improve_ms_p50"] = on.pct("search.improve", 0.5, time.Millisecond)
	v["search.improve_ms_p99"] = on.pct("search.improve", 0.99, time.Millisecond)
	v["search.engine_us_p50"] = on.pct("search.engine", 0.5, time.Microsecond)
	v["search.moves_per_ms"] = ratio(float64(rs.evaluated), ms(on.total("search.improve")))
	v["search.evaluated_per_job"] = ratio(float64(rs.evaluated), float64(rs.improveCalls))
	v["search.accept_ratio"] = ratio(float64(rs.accepted), float64(rs.evaluated))
	v["search.improve_ratio"] = ratio(float64(rs.improved), float64(rs.improveCalls))
	v["sim.run_ms_p50"] = percentile(runMs, 0.5)
	v["sim.residual_share"] = 1 - ratio(float64(covered), float64(runTotal))
	v["sim.replay_match_frac"] = ratio(float64(rs.matched), float64(rs.priced))
	for _, n := range []string{"daemon.engine_submit_us_p50", "daemon.engine_submit_us_p99",
		"daemon.engine_status_us_p99", "daemon.server_wall_p99_ms", "daemon.wire_us_p50",
		"daemon.busy_frac", "daemon.queue_len_end", "gen.lag_ms_p99"} {
		v[n] = 0 // no daemon on a batch workload
	}
	v["trace.overhead_frac"] = ratio(float64(tracedTotal-plainTotal), float64(plainTotal))
	return nil
}
