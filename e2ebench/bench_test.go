package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/sim"
)

// tiny shrinks a batch workload to one short trace, keeping its machine and
// algorithms.
func tiny(s batchSpec) batchSpec {
	s.traces, s.jobs = 1, 30
	return s
}

// smokeWorkloads are the benchmark's workloads at smoke size: the batch
// ones on one 30-job trace, serve-mixed with a one-second budget and
// closed-loop stages of 600 ops.
var smokeWorkloads = map[string]func(runConfig) (*report, error){
	"theta-paper":  func(rc runConfig) (*report, error) { return runBatch(tiny(thetaPaper), rc) },
	"wide-4096":    func(rc runConfig) (*report, error) { return runBatch(tiny(wide4096), rc) },
	"theta-anneal": func(rc runConfig) (*report, error) { return runBatch(tiny(thetaAnneal), rc) },
	"serve-mixed":  func(rc runConfig) (*report, error) { return runServe(rc, 600) },
}

// TestSmoke runs every workload tiny, untraced and traced, and checks that
// every metric is printed by name with its unit, both in the result object
// (the last line) and in the lines before it.
func TestSmoke(t *testing.T) {
	if len(smokeWorkloads) != len(workloads) {
		t.Fatalf("smoke covers %d workloads, the benchmark has %d", len(smokeWorkloads), len(workloads))
	}
	for _, wl := range workloads {
		run, ok := smokeWorkloads[wl.name]
		if !ok {
			t.Fatalf("workload %s has no smoke version", wl.name)
		}
		for _, traced := range []bool{false, true} {
			rc := runConfig{name: wl.name, seed: 7, budget: time.Second, trace: traced, spanDir: t.TempDir()}
			var out bytes.Buffer
			res, err := execute(workloadDef{wl.name, wl.procs, run}, rc, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, traced, err)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s",
					wl.name, traced, res.Correct, res.Failed, res.Attempted, out.String())
			}
			defs := e2eMetrics
			if traced {
				defs = layerMetrics
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not the result: %v", wl.name, err)
			}
			if len(last.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl.name, traced, len(last.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := last.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q != %q", wl.name, traced, d.name, m.Unit, d.unit)
				}
				prefix := fmt.Sprintf("# %s %s ", wl.name, d.name)
				if !strings.Contains(out.String(), prefix) || !strings.Contains(out.String(), " "+d.unit+"\n") {
					t.Errorf("%s trace=%v: no line %q...%s", wl.name, traced, prefix, d.unit)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workload and metric
// lists in step with the code that measures them.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in code", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		json []metric
		code []metricDef
	}{{b.EndToEnd, e2eMetrics}, {b.PerLayer, layerMetrics}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the code %d", len(c.json), len(c.code))
		}
		for i, m := range c.json {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("metric %d: %s/%s in BENCHMARK.json, %s/%s in code", i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

// TestCheckCellCatchesPlantedBadResults plants a schedule that breaks the
// runtime model and one whose digest differs from the first run's; the
// correctness check must reject both.
func TestCheckCellCatchesPlantedBadResults(t *testing.T) {
	in := setupBatch(tiny(thetaPaper), 3)
	c := tiny(thetaPaper).cells(in)[len(core.Algorithms)-1] // adaptive
	res, err := sim.RunContinuous(c.cfg, c.trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCell(c, res); err != nil {
		t.Fatalf("good result rejected: %v", err)
	}

	bad := *res
	bad.Jobs = append(bad.Jobs[:0:0], res.Jobs...)
	bad.Jobs[0].End += 60 // runs longer than its Eq. 7 runtime
	if err := checkCell(c, &bad); err == nil {
		t.Fatal("a job that ran past its modified runtime was accepted")
	}

	again, err := sim.RunContinuous(c.cfg, c.trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCell(c, again); err != nil {
		t.Fatalf("identical repetition rejected: %v", err)
	}
	c.digest ^= 1 // as if the first run had produced another schedule
	if err := checkCell(c, again); err == nil {
		t.Fatal("a repetition with a different digest was accepted")
	}
}

// TestCheckDaemonCatchesPlantedBadResults plants an acked ID the daemon
// never issued; the serving check must flag it as unqueryable and the job
// count as not conserved.
func TestCheckDaemonCatchesPlantedBadResults(t *testing.T) {
	in, err := setupServe(3)
	if err != nil {
		t.Fatal(err)
	}
	clk := newOpClock()
	d, err := newDaemon(in, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var req daemon.Request
	applySpec(&req, in.specs[0])
	clk.tick()
	r := d.Submit(req)
	if !r.Ok {
		t.Fatalf("submit: %s", r.Error)
	}
	clk.freeze()
	var ack acked
	ack.add(r.ID)
	good := &stageResult{ackedJobs: 1}
	checkDaemon(d, &ack, good)
	if good.failed != 0 {
		t.Fatalf("good daemon state rejected: %v", good.problems)
	}
	ack.add(r.ID + 1000)
	bad := &stageResult{ackedJobs: 2}
	checkDaemon(d, &ack, bad)
	if bad.failed != 2 {
		t.Fatalf("planted acked ID: %d failures (%v), want 2", bad.failed, bad.problems)
	}
}

// TestBusyRepliesAreRetried puts a proxy between the clients and the
// server that answers every third frame with a busy reply itself, as the
// server does when its queue is full: each such op must be sent again
// until it is answered, and none may fail.
func TestBusyRepliesAreRetried(t *testing.T) {
	in, err := setupServe(3)
	if err != nil {
		t.Fatal(err)
	}
	defer func(d func(string) (*daemon.Pipe, error)) { dialStage = d }(dialStage)
	dialStage = func(addr string) (*daemon.Pipe, error) { return daemon.DialPipe(busyProxy(t, addr)) }
	for _, plan := range []stagePlan{closedLoop(600), openLoop(serveRefRate, 150*time.Millisecond)} {
		s, err := runStage(in, 3, stageSat, plan, newRecorder(false, 0))
		if err != nil {
			t.Fatal(err)
		}
		answered := len(s.submit.ms) + len(s.read.ms)
		if s.busy < s.ops/4 || s.failed != 0 || answered != s.ops {
			t.Fatalf("%s: busy %d, failed %d (%v), %d of %d ops answered", plan, s.busy, s.failed, s.problems, answered, s.ops)
		}
	}
}

// busyProxy relays one client connection to the server at addr, answering
// every third frame with a busy reply instead of forwarding it; replies
// keep the order of the frames.
func busyProxy(t *testing.T, addr string) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	busy, err := json.Marshal(daemon.Response{Error: daemon.BusyError, Retryable: true})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		s, err := net.Dial("tcp", addr)
		if err != nil {
			c.Close()
			return
		}
		forwarded := make(chan bool, 1<<16) // per frame: does the server answer it?
		go func() {
			defer close(forwarded)
			r := bufio.NewReader(c)
			for n := 1; ; n++ {
				line, err := r.ReadBytes('\n')
				if err != nil {
					s.(*net.TCPConn).CloseWrite()
					return
				}
				fwd := n%3 != 0
				if fwd {
					s.Write(line)
				}
				forwarded <- fwd
			}
		}()
		go func() {
			defer c.Close()
			defer s.Close()
			r := bufio.NewReader(s)
			for fwd := range forwarded {
				line := append(busy, '\n')
				if fwd {
					if line, err = r.ReadBytes('\n'); err != nil {
						return
					}
				}
				c.Write(line)
			}
		}()
	}()
	return ln.Addr().String()
}
