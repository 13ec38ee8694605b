package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/topology"
	"repro/internal/workload"
)

// serve-mixed drives an in-process daemon.Daemon behind a daemon.Server on
// loopback over serveConns pipelined connections. Its gated figures come
// from closed-loop stages: each connection keeps serveWindow ops in flight,
// and the daemon's clock advances with the op stream (stageClock), so the
// virtual queue sees the trace's own utilisation at whatever rate the
// daemon runs. An open-loop stage at serveRefRate, each op timed from the
// moment it was due, gives the latencies, which are printed but not gated.
const (
	serveConns = 2
	// serveRefRate is the open-loop stage's fixed rate (ops/s), about a
	// quarter of the highest rate whose p99 latency stayed within 20 ms on
	// a 2-vCPU machine (NOTES.md). It also sets the op clock's step.
	serveRefRate = 4000.0
	// serveWindow is how many ops each connection keeps in flight in a
	// closed-loop stage; both together stay well below the server's
	// daemon.DefaultQueueDepth, so the server does not turn ops away as
	// busy. More in flight coarsens the op clock (NOTES.md).
	serveWindow = 4
	// serveSatOps is the op count of one closed-loop stage. Every such
	// stage of a run offers the same op stream to a fresh daemon.
	serveSatOps = 30000
	// serveWindows is how many equal windows of due time a stage is split
	// into; a stage's percentiles are the median of the windows'
	// percentiles, so one stall does not decide a whole run.
	serveWindows = 8
	// serveBatch is the job count of one submit_batch op.
	serveBatch = 4
	// serveTraceJobs is the length of the seeded trace the submitted jobs
	// cycle through.
	serveTraceJobs = 16000
)

// Op mix: 45% single submits, 15% submit_batch, 40% status reads of IDs
// already acked. The proportions and serveBatch are assumptions: no client
// trace or measurement of them exists. cmd/loadgen, the only other client
// generator, sends either single submits or submit_batch frames of 64 and
// no reads.
const (
	opSubmit = iota
	opBatch
	opStatus
)

func pickOp(rng *rand.Rand) int {
	switch x := rng.Float64(); {
	case x < 0.45:
		return opSubmit
	case x < 0.60:
		return opBatch
	default:
		return opStatus
	}
}

// jobsPerOp is the mix's expected jobs per op, used to size TimeScale.
const jobsPerOp = 0.45 + 0.15*serveBatch

// serveInputs is one set-up's product.
type serveInputs struct {
	topo  *topology.Topology
	specs []daemon.SubmitSpec
	// traceRate is the trace's own arrival rate in jobs per virtual second.
	traceRate float64
	synth     time.Duration
	layout    time.Duration
	setup     times
}

func setupServe(seed int64) (serveInputs, error) {
	sw := startWatch()
	in := serveInputs{topo: topology.Theta()}
	t1 := time.Now()
	cluster.LayoutOf(in.topo)
	in.layout = time.Since(t1)
	t2 := time.Now()
	tr := workload.Theta.Synthesize(serveTraceJobs, traceSeed(seed, 0)).
		MustTag(0.9, paperMix, traceSeed(seed, 0)+1)
	for _, j := range tr.Jobs {
		s := daemon.SubmitSpec{Nodes: j.Nodes, Runtime: j.Runtime, Class: "compute"}
		if j.Class == cluster.CommIntensive {
			s.Class, s.Pattern, s.CommShare = "comm", "RD", paperMix.Comms[0].Frac
		}
		in.specs = append(in.specs, s)
	}
	span := tr.Jobs[len(tr.Jobs)-1].Submit - tr.Jobs[0].Submit
	in.traceRate = float64(len(tr.Jobs)) / span
	in.synth = time.Since(t2)
	// Daemon start-up is part of set-up: start one, connect, and stop it.
	sv, err := startServer(in, &stageClock{})
	if err != nil {
		return in, err
	}
	p, err := daemon.DialPipe(sv.addr)
	if err == nil {
		err = p.Close()
	}
	if serr := sv.stop(); err == nil {
		err = serr
	}
	in.setup = sw.elapsed()
	return in, err
}

// newDaemon starts a daemon whose TimeScale is the reference rate's job
// rate over the trace's own arrival rate: at serveRefRate ops per clock
// second the virtual queue sees the trace's utilisation.
func newDaemon(in serveInputs, clk *stageClock) (*daemon.Daemon, error) {
	return daemon.New(daemon.Config{
		Topology: in.topo, Algorithm: core.Adaptive,
		TimeScale: serveRefRate * jobsPerOp / in.traceRate,
		Clock:     clk.now,
	})
}

// opStep is how far an op clock moves per op sent.
const opStep = time.Duration(float64(time.Second) / serveRefRate)

// stageClock is a daemon's clock for one stage. A wall clock (the zero
// value) reads time.Now; an op clock (newOpClock) moves opStep per op
// sent, so virtual time follows the op stream, not the wall. Either reads
// a fixed instant once frozen, so listings taken one after another
// describe the same instant.
type stageClock struct {
	opBase time.Time // zero for a wall clock
	sent   atomic.Int64
	frozen atomic.Int64 // Unix ns; 0 = running
}

func newOpClock() *stageClock { return &stageClock{opBase: time.Now()} }

func (c *stageClock) now() time.Time {
	if f := c.frozen.Load(); f != 0 {
		return time.Unix(0, f)
	}
	if !c.opBase.IsZero() {
		return c.opBase.Add(time.Duration(c.sent.Load()) * opStep)
	}
	return time.Now()
}

// tick records one op sent; a wall clock ignores it.
func (c *stageClock) tick() { c.sent.Add(1) }

func (c *stageClock) freeze() { c.frozen.Store(c.now().UnixNano()) }

// server is a daemon behind a daemon.Server on a loopback port.
type server struct {
	clk  *stageClock
	d    *daemon.Daemon
	srv  *daemon.Server
	addr string
	done chan error // Serve's return
}

func startServer(in serveInputs, clk *stageClock) (*server, error) {
	sv := &server{clk: clk, done: make(chan error, 1)}
	d, err := newDaemon(in, clk)
	if err != nil {
		return nil, err
	}
	srv := daemon.NewServer(d)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		d.Close()
		return nil, err
	}
	sv.d, sv.srv, sv.addr = d, srv, srv.Addr().String()
	go func() { sv.done <- srv.Serve() }()
	return sv, nil
}

// stop closes the server, which stops the daemon too, and waits for Serve
// to return.
func (sv *server) stop() error {
	sv.srv.Close()
	return <-sv.done
}

// plannedOp is one op of a stage's seeded stream.
type plannedOp struct {
	kind int
	due  time.Duration // since the stage start
	spec int           // first trace job index
	pick uint64        // picks the acked ID a read queries
}

// planStage draws a stage's n ops, due at the given rate.
func planStage(seed int64, stage int, rate float64, n, specs int) []plannedOp {
	rng := rand.New(rand.NewSource(seed*7907 + int64(stage)))
	ops := make([]plannedOp, n)
	next := 0
	for i := range ops {
		k := pickOp(rng)
		ops[i] = plannedOp{kind: k, due: time.Duration(float64(i) / rate * float64(time.Second)),
			spec: next % specs, pick: rng.Uint64()}
		switch k {
		case opSubmit:
			next++
		case opBatch:
			next += serveBatch
		}
	}
	return ops
}

// acked holds the IDs acknowledged so far, shared by the connections.
type acked struct {
	mu  sync.Mutex
	ids []int64
}

func (a *acked) add(ids ...int64) {
	a.mu.Lock()
	a.ids = append(a.ids, ids...)
	a.mu.Unlock()
}

func (a *acked) pick(x uint64) (int64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.ids) == 0 {
		return 0, false
	}
	return a.ids[x%uint64(len(a.ids))], true
}

// stagePlan is how a stage offers its ops: open loop, each op due at its
// slot of rate for dur; or closed loop (window > 0), n ops with each
// connection keeping window of them in flight.
type stagePlan struct {
	rate   float64
	dur    time.Duration
	window int
	n      int
}

func openLoop(rate float64, dur time.Duration) stagePlan {
	return stagePlan{rate: rate, dur: dur, n: int(rate * dur.Seconds())}
}

func closedLoop(n int) stagePlan { return stagePlan{rate: serveRefRate, window: serveWindow, n: n} }

func (p stagePlan) String() string {
	if p.window > 0 {
		return fmt.Sprintf("closed loop, %d in flight per connection", p.window)
	}
	return fmt.Sprintf("open loop at %.0f ops/s", p.rate)
}

// stageResult is one stage's outcome.
type stageResult struct {
	plan        stagePlan
	ops         int
	failed      int       // failed or refused ops and check failures
	busy        int       // busy replies; each such op was sent again
	submit      latencies // from due (closed loop: from the send) to ack
	read        latencies
	rttUs       []float64 // submit round trips from the actual send
	lagMs       []float64 // how late each op was sent (open loop)
	elapsed     time.Duration
	cpu         time.Duration // process CPU time over the stage
	ackedJobs   int
	startedJobs int
	queueEnd    int
	allocs      uint64
	stats       daemon.Response
	problems    []string
}

func (s *stageResult) fail(format string, args ...any) {
	s.failed++
	s.problems = append(s.problems, fmt.Sprintf(format, args...))
}

// jobsPerCPUs is the jobs acked per second of process CPU time.
func (s *stageResult) jobsPerCPUs() float64 { return ratio(float64(s.ackedJobs), s.cpu.Seconds()) }

func (s *stageResult) jobsPerS() float64 { return ratio(float64(s.ackedJobs), s.elapsed.Seconds()) }

func (s *stageResult) describe() string {
	return fmt.Sprintf("%s: %d ops, achieved %.0f ops/s, %.0f jobs/s, %.0f jobs per CPU s, submit p50 %.3f p90 %.3f p99 %.3f ms, read p90 %.3f p99 %.3f ms, lag p99 %.3f ms, busy %d, failed %d, queue end %d",
		s.plan, s.ops, ratio(float64(s.ops), s.elapsed.Seconds()), s.jobsPerS(), s.jobsPerCPUs(),
		s.submit.p50(), s.submit.pct(0.9), s.submit.pct(0.99), s.read.pct(0.9), s.read.pct(0.99),
		percentile(s.lagMs, 0.99), s.busy, s.failed, s.queueEnd)
}

// latencies are one op kind's latencies in a stage, each with its due
// offset.
type latencies struct {
	due  []time.Duration
	ms   []float64
	span time.Duration // the stage's length
}

func (l *latencies) add(due time.Duration, ms float64) {
	l.due = append(l.due, due)
	l.ms = append(l.ms, ms)
}

func (l *latencies) p50() float64 { return l.pct(0.5) }

// pct is the median over serveWindows equal windows of due time of each
// window's q-quantile.
func (l *latencies) pct(q float64) float64 {
	if l.span <= 0 {
		return 0
	}
	win := make([][]float64, serveWindows)
	for i, d := range l.due {
		w := windowOf(d, l.span)
		win[w] = append(win[w], l.ms[i])
	}
	var p []float64
	for _, xs := range win {
		if len(xs) > 0 {
			p = append(p, percentile(xs, q))
		}
	}
	return median(p)
}

// windowOf maps a due offset to its window of the stage.
func windowOf(d, span time.Duration) int {
	w := int(int64(d) * serveWindows / int64(span))
	if w >= serveWindows {
		w = serveWindows - 1
	}
	return w
}

// inflight is one sent op awaiting its reply.
type inflight struct {
	op   plannedOp
	req  daemon.Request
	sent time.Time
	span int32
}

// runStage offers one stage's ops as planned and checks the daemon
// afterwards: every acked ID is queryable and jobs are conserved across
// queued, running and completed. Open-loop stages run the daemon on the
// wall clock, closed-loop ones on an op clock.
func runStage(in serveInputs, seed int64, stage int, plan stagePlan, rec *recorder) (*stageResult, error) {
	clk := &stageClock{}
	if plan.window > 0 {
		clk = newOpClock()
	}
	sv, err := startServer(in, clk)
	if err != nil {
		return nil, err
	}
	ops := planStage(seed, stage, plan.rate, plan.n, len(in.specs))
	res := &stageResult{plan: plan, ops: len(ops)}
	pipes := make([]*daemon.Pipe, serveConns)
	// Clients hang up first, then the server stops and Serve returns.
	defer func() {
		for _, p := range pipes {
			if p != nil {
				p.Close()
			}
		}
		if err := sv.stop(); err != nil {
			res.fail("serve: %v", err)
		}
	}()
	for c := range pipes {
		if pipes[c], err = dialStage(sv.addr); err != nil {
			return nil, err
		}
	}
	var ack acked
	var mu sync.Mutex // guards res and rec across the receivers
	// A stage that stalls past this point has a hung server: closing the
	// connections fails the outstanding receives instead of hanging.
	watchdog := time.AfterFunc(plan.dur+60*time.Second, func() {
		for _, p := range pipes {
			p.Close()
		}
	})
	defer watchdog.Stop()

	a0 := heapAllocs()
	c0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		mine := (len(ops) - c + serveConns - 1) / serveConns // ops this connection sends
		q := make(chan inflight, mine+1)                     // sent, awaiting a reply, in send order
		// An op the server turns away as busy goes back to the sender,
		// which sends it again, as daemon.Client does; only its final
		// reply answers it. answered counts final replies; lost closes
		// when the connection fails.
		retry := make(chan inflight, mine+1)
		answered := make(chan struct{}, mine+1)
		lost := make(chan struct{})
		// slots bounds a closed-loop connection's ops in flight.
		slots := make(chan struct{}, max(plan.window, 1))
		wg.Add(2)
		go func(p *daemon.Pipe) {
			defer wg.Done()
			defer close(q)
			send := func(f inflight) bool {
				f.sent = time.Now()
				err := p.Send(f.req)
				if err == nil {
					err = p.Flush()
				}
				if err != nil {
					mu.Lock()
					res.fail("send: %v", err)
					mu.Unlock()
					return false
				}
				q <- f
				return true
			}
			resend := func() bool {
				for {
					select {
					case f := <-retry:
						if !send(f) {
							return false
						}
					default:
						return true
					}
				}
			}
			for i := c; i < len(ops); i += serveConns {
				op := ops[i]
				if plan.window > 0 {
					for taken := false; !taken; {
						select {
						case slots <- struct{}{}:
							taken = true
						case f := <-retry:
							if !send(f) {
								return
							}
						}
					}
					op.due = time.Since(start)
				} else if wait := time.Until(start.Add(op.due)); wait > 0 {
					time.Sleep(wait)
				}
				if !resend() {
					return
				}
				req := daemon.Request{Op: "submit"}
				switch op.kind {
				case opSubmit:
					applySpec(&req, in.specs[op.spec])
				case opBatch:
					req.Op = "submit_batch"
					for k := 0; k < serveBatch; k++ {
						req.Batch = append(req.Batch, in.specs[(op.spec+k)%len(in.specs)])
					}
				case opStatus:
					if id, ok := ack.pick(op.pick); ok {
						req = daemon.Request{Op: "status", ID: id}
					} else {
						op.kind = opSubmit
						applySpec(&req, in.specs[op.spec])
					}
				}
				mu.Lock()
				h := rec.begin("client."+req.Op, int64(i), -1)
				mu.Unlock()
				if plan.window == 0 {
					mu.Lock()
					res.lagMs = append(res.lagMs, ms(time.Since(start.Add(op.due))))
					mu.Unlock()
				}
				clk.tick()
				if !send(inflight{op: op, req: req, span: h}) {
					return
				}
			}
			for n := 0; n < mine; {
				select {
				case f := <-retry:
					if !send(f) {
						return
					}
				case <-answered:
					n++
				case <-lost:
					return
				}
			}
		}(pipes[c])
		go func(p *daemon.Pipe) {
			defer wg.Done()
			for f := range q {
				resp, err := p.Recv()
				now := time.Now()
				if err == nil && resp.Retryable {
					mu.Lock()
					res.busy++
					mu.Unlock()
					retry <- f
					continue
				}
				if plan.window > 0 {
					<-slots
				}
				mu.Lock()
				rec.end(f.span)
				lat := ms(now.Sub(start.Add(f.op.due)))
				switch {
				case err != nil:
					res.fail("receive: %v", err)
				case !resp.Ok:
					res.fail("op refused: %s", resp.Error)
				case f.op.kind == opStatus:
					res.read.add(f.op.due, lat)
					if resp.Job == nil {
						res.fail("status reply without a job")
					}
				default:
					res.submit.add(f.op.due, lat)
					res.rttUs = append(res.rttUs, us(now.Sub(f.sent)))
					var ids []int64
					if f.op.kind == opBatch {
						for _, br := range resp.Batch {
							if br.Error != "" {
								res.fail("batch item refused: %s", br.Error)
								continue
							}
							ids = append(ids, br.ID)
						}
					} else {
						ids = append(ids, resp.ID)
					}
					res.ackedJobs += len(ids)
					ack.add(ids...)
				}
				mu.Unlock()
				answered <- struct{}{}
				if err != nil {
					close(lost)
					for range q {
						if plan.window > 0 {
							<-slots
						}
						mu.Lock()
						res.fail("receive: connection lost")
						mu.Unlock()
					}
					return
				}
			}
		}(pipes[c])
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.cpu = cpuTime() - c0
	res.allocs = heapAllocs() - a0
	res.submit.span, res.read.span = plan.dur, plan.dur
	if plan.window > 0 {
		res.submit.span, res.read.span = res.elapsed, res.elapsed
	}
	sv.clk.freeze()
	checkDaemon(sv.d, &ack, res)
	return res, nil
}

// dialStage connects one of a stage's client connections; a test puts a
// proxy in between.
var dialStage = daemon.DialPipe

func applySpec(req *daemon.Request, s daemon.SubmitSpec) {
	req.Nodes, req.Runtime, req.Class, req.Pattern, req.CommShare = s.Nodes, s.Runtime, s.Class, s.Pattern, s.CommShare
}

// checkDaemon is serve-mixed's correctness check: every acked ID answers
// status, and the acked job count equals queued + running + completed. The
// daemon's clock must be frozen, so the three listings agree in time.
func checkDaemon(d *daemon.Daemon, ack *acked, res *stageResult) {
	for _, id := range ack.ids {
		if r := d.Status(id); !r.Ok || r.Job == nil || r.Job.ID != id {
			res.fail("acked job %d not queryable: %s", id, r.Error)
		}
	}
	res.stats = d.Stats()
	queue, running := d.Queue(), d.Running()
	if !res.stats.Ok || !queue.Ok || !running.Ok {
		res.fail("daemon listing failed: %s%s%s", res.stats.Error, queue.Error, running.Error)
		return
	}
	res.queueEnd = len(queue.Jobs)
	res.startedJobs = len(running.Jobs) + res.stats.Completed
	if got := res.queueEnd + res.startedJobs; got != len(ack.ids) || got != res.ackedJobs {
		res.fail("job count not conserved: %d queued + %d running + %d completed != %d acked",
			res.queueEnd, len(running.Jobs), res.stats.Completed, len(ack.ids))
	}
}

// Stage numbers seed each stage's op stream.
const (
	stageRef  = 0 // the open-loop reference stage
	stageWarm = 1 // the unmeasured warm-up
	stageSat  = 2 // every closed-loop stage
)

// runServe runs serve-mixed with closed-loop stages of satOps ops.
func runServe(rc runConfig, satOps int) (*report, error) {
	rep := newReport()
	var in serveInputs
	var setups setupStats
	for i := 0; i < setupReps; i++ {
		in = serveInputs{}
		runtime.GC() // each set-up starts from a collected heap
		var err error
		if in, err = setupServe(rc.seed); err != nil {
			return nil, err
		}
		setups.add(in.setup, in.synth, in.layout)
	}
	rep.infof("inputs Theta trace of %d jobs (seed %d, %.5f jobs per virtual s), %d connections, mix 45%% submit / 15%% submit_batch(%d) / 40%% status, closed-loop stages of %d ops",
		len(in.specs), traceSeed(rc.seed, 0), in.traceRate, serveConns, serveBatch, satOps)
	if rc.trace {
		return rep, traceServe(rc, in, rep, median(setups.synthMs), median(setups.layoutMs), satOps)
	}
	deadline := time.Now().Add(rc.budget)
	warm, err := warmUp(in, rc.seed, satOps)
	if err != nil {
		return nil, err
	}
	ref, err := runStage(in, rc.seed, stageRef, openLoop(serveRefRate, rc.budget/5), newRecorder(false, 0))
	if err != nil {
		return nil, err
	}
	// Closed-loop stages, all on the same op stream, while the next one
	// would mostly fit; at least three, so the median has a middle.
	var sat []*stageResult
	var last time.Duration
	for len(sat) < 3 || time.Until(deadline) > last/2 {
		s, err := runStage(in, rc.seed, stageSat, closedLoop(satOps), newRecorder(false, 0))
		if err != nil {
			return nil, err
		}
		sat = append(sat, s)
		last = s.elapsed
	}
	var perCPU, allocs, cost, turn, wall []float64
	for _, s := range append([]*stageResult{warm, ref}, sat...) {
		rep.attempted += s.ops
		rep.failed += s.failed
		rep.busy += s.busy
		for _, p := range s.problems {
			rep.problems = append(rep.problems, fmt.Sprintf("%s: %s", s.plan, p))
		}
		rep.infof("stage %s", s.describe())
	}
	for _, s := range sat {
		st := s.stats
		perCPU = append(perCPU, s.jobsPerCPUs())
		wall = append(wall, s.jobsPerS())
		allocs = append(allocs, ratio(float64(s.allocs), float64(s.ackedJobs)))
		cost = append(cost, st.AvgCommCost)
		turn = append(turn, ratio(st.TotalWaitHours+st.TotalExecHours, float64(st.Completed)))
	}
	rep.values["jobs_per_cpu_s"] = median(perCPU)
	rep.values["allocs_per_job"] = median(allocs)
	rep.values["mean_comm_cost"] = median(cost)
	rep.values["mean_turnaround_h"] = median(turn)
	rep.infof("serve-mixed not gated: jobs_per_s %.6g 1/s (wall, closed loop); at %g ops/s open loop: submit_p50_ms %.6g, submit_p90_ms %.6g, submit_p99_ms %.6g, read_p90_ms %.6g, read_p99_ms %.6g ms",
		median(wall), serveRefRate, ref.submit.p50(), ref.submit.pct(0.9), ref.submit.pct(0.99), ref.read.pct(0.9), ref.read.pct(0.99))
	setups.report(rep, rc.name)
	return rep, nil
}

// warmUp runs a short unmeasured closed-loop stage, so the first measured
// stage does not pay the process's heap growth and first connections.
func warmUp(in serveInputs, seed int64, satOps int) (*stageResult, error) {
	return runStage(in, seed, stageWarm, closedLoop(satOps/4), newRecorder(false, 0))
}

// traceServe is serve-mixed's traced run: the reference stage untraced,
// the same stage with a span per client op, and the same op stream sent
// through the daemon's direct Go API with a span per call.
func traceServe(rc runConfig, in serveInputs, rep *report, synthMs, layoutMs float64, satOps int) error {
	warm, err := warmUp(in, rc.seed, satOps)
	if err != nil {
		return err
	}
	plan := openLoop(serveRefRate, rc.budget/3)
	plain, err := runStage(in, rc.seed, stageRef, plan, newRecorder(false, 0))
	if err != nil {
		return err
	}
	on := newRecorder(true, spanKeep)
	traced, err := runStage(in, rc.seed, stageRef, plan, on)
	if err != nil {
		return err
	}
	engOps, engFailed, err := engineStream(in, rc.seed, plan, on)
	if err != nil {
		return err
	}
	on.trim()
	if err := on.dump(rc.spanDir, rc.name+".tsv"); err != nil {
		return err
	}
	rep.attempted = warm.ops + plain.ops + traced.ops + engOps
	rep.failed = engFailed
	for _, s := range []*stageResult{warm, plain, traced} {
		rep.busy += s.busy
		rep.failed += s.failed
		rep.problems = append(rep.problems, s.problems...)
		rep.infof("stage %s", s.describe())
	}
	v := rep.values
	for _, d := range layerMetrics {
		v[d.name] = 0 // the batch layers are not called from here
	}
	engSubmit := on.pct("engine.submit", 0.5, time.Microsecond)
	plainP50 := plain.submit.p50()
	v["workload.synth_ms"] = synthMs
	v["cluster.layout_ms"] = layoutMs
	v["daemon.engine_submit_us_p50"] = engSubmit
	v["daemon.engine_submit_us_p99"] = on.pct("engine.submit", 0.99, time.Microsecond)
	v["daemon.engine_status_us_p99"] = on.pct("engine.status", 0.99, time.Microsecond)
	if traced.stats.Latency != nil {
		v["daemon.server_wall_p99_ms"] = traced.stats.Latency.WallP99Ms
	}
	v["daemon.wire_us_p50"] = percentile(traced.rttUs, 0.5) - engSubmit
	v["daemon.busy_frac"] = ratio(float64(traced.busy), float64(traced.ops))
	v["daemon.queue_len_end"] = float64(traced.queueEnd)
	v["gen.lag_ms_p99"] = percentile(traced.lagMs, 0.99)
	v["trace.overhead_frac"] = ratio(traced.submit.p50()-plainP50, plainP50)
	return nil
}

// engineStream sends a stage's op stream, at its due times, through the
// daemon's direct Go API (no server, no wire), with a span per call. It
// returns the ops sent and how many failed.
func engineStream(in serveInputs, seed int64, plan stagePlan, rec *recorder) (int, int, error) {
	d, err := newDaemon(in, &stageClock{})
	if err != nil {
		return 0, 0, err
	}
	defer d.Close()
	ops := planStage(seed, stageRef, plan.rate, plan.n, len(in.specs))
	var ids []int64
	failed := 0
	start := time.Now()
	for i, op := range ops {
		if wait := time.Until(start.Add(op.due)); wait > 0 {
			time.Sleep(wait)
		}
		var resp daemon.Response
		if op.kind == opStatus && len(ids) > 0 {
			id := ids[op.pick%uint64(len(ids))]
			h := rec.begin("engine.status", int64(i), -1)
			resp = d.Status(id)
			rec.end(h)
		} else if op.kind == opBatch {
			specs := make([]daemon.SubmitSpec, serveBatch)
			for k := range specs {
				specs[k] = in.specs[(op.spec+k)%len(in.specs)]
			}
			h := rec.begin("engine.submit", int64(i), -1)
			resp = d.SubmitBatch(specs)
			rec.end(h)
			for _, br := range resp.Batch {
				if br.Error != "" {
					failed++
				} else {
					ids = append(ids, br.ID)
				}
			}
		} else {
			var req daemon.Request
			applySpec(&req, in.specs[op.spec])
			h := rec.begin("engine.submit", int64(i), -1)
			resp = d.Submit(req)
			rec.end(h)
			if resp.Ok {
				ids = append(ids, resp.ID)
			}
		}
		if !resp.Ok {
			failed++
		}
	}
	return len(ops), failed, nil
}
