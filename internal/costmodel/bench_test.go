package costmodel

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/topology"
	"repro/internal/workload"
)

// BenchmarkJobCost512Leaves measures Eq. 6 on a machine four times past
// the dense-block threshold (512 leaves, three-level tree): a 256-node
// recursive-doubling job striped across every other leaf, evaluated by
// the sparse leaf-pair kernel ("opt") and the uncached reference loop
// ("ref"). Before the sparse kernel this shape silently ran the reference
// path, so this pair is the ceiling-breaking evidence the committed
// BENCH_*.json tracks.
func BenchmarkJobCost512Leaves(b *testing.B) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 2, Fanouts: []int{128, 4}})
	st := cluster.New(topo)
	nodes := make([]int, 256)
	for i := range nodes {
		nodes[i] = topo.LeafNodes(2 * i % topo.NumLeaves())[0]
	}
	if err := st.Allocate(1, cluster.CommIntensive, nodes); err != nil {
		b.Fatal(err)
	}
	steps := collective.RD.MustSchedule(256)
	for _, mode := range []struct {
		name string
		ref  bool
	}{{"opt", false}, {"ref", true}} {
		b.Run(mode.name, func(b *testing.B) {
			SetReferenceMode(mode.ref)
			defer SetReferenceMode(false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := JobCost(st, nodes, steps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// The wide variant: a 512-rank alltoall with one rank on every leaf
	// (quadratic distinct leaf pairs — the shape where flat costing is
	// O(touched²)), on its own uniformly loaded state so cross-pod blocks
	// collapse. "wide/opt" is the subtree-aggregated kernel, "wide/flat"
	// the previous sparse leaf-pair kernel, "wide/ref" the uncached loops.
	b.Run("wide", func(b *testing.B) {
		wst := cluster.New(topo)
		wnodes := make([]int, 512)
		for i := range wnodes {
			wnodes[i] = topo.LeafNodes(i)[0]
		}
		if err := wst.Allocate(1, cluster.CommIntensive, wnodes); err != nil {
			b.Fatal(err)
		}
		benchKernelPaths(b, wst, wnodes, collective.Alltoall.MustSchedule(512))
	})
}

// BenchmarkJobCost4096LeavesWide is the dragonfly-scale headline pair the
// benchcmp gate pins: 4096 leaves in 64 pods of 64, a 1024-rank alltoall
// striped across every fourth leaf (16 touched leaves in every pod, so
// every cross-pod block is live), costed by the subtree-aggregated kernel
// ("opt"), the flat sparse kernel ("flat" — the previous opt path), and
// the reference loops ("ref"). The alltoall's XOR step structure puts
// ~32 cross-pod blocks per step where the flat kernel scans 512 pairs,
// which is where the ≥5× collapse comes from.
func BenchmarkJobCost4096LeavesWide(b *testing.B) {
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 2, Fanouts: []int{64, 64}})
	st := cluster.New(topo)
	nodes := make([]int, 1024)
	for i := range nodes {
		nodes[i] = topo.LeafNodes(4 * i % topo.NumLeaves())[0]
	}
	if err := st.Allocate(1, cluster.CommIntensive, nodes); err != nil {
		b.Fatal(err)
	}
	steps := collective.Alltoall.MustSchedule(1024)
	benchKernelPaths(b, st, nodes, steps)
}

// benchKernelPaths runs one JobCost fixture through the three evaluation
// paths: the default aggregated kernel, the flat kernel (aggregation
// off), and the reference loops. The fixture must be wide enough to
// engage the aggregated stage — measuring the toggle without the stage
// would silently benchmark the same code twice.
func benchKernelPaths(b *testing.B, st *cluster.State, nodes []int, steps []collective.Step) {
	b.Helper()
	if agg, err := ScheduleAggregated(st, nodes, steps); err != nil || !agg {
		b.Fatalf("fixture not on the aggregated path (agg=%v, err=%v)", agg, err)
	}
	for _, mode := range []struct {
		name string
		ref  bool
		agg  bool
	}{{"opt", false, true}, {"flat", false, false}, {"ref", true, true}} {
		b.Run(mode.name, func(b *testing.B) {
			SetReferenceMode(mode.ref)
			SetAggregationMode(mode.agg)
			defer func() {
				SetReferenceMode(false)
				SetAggregationMode(true)
			}()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := JobCost(st, nodes, steps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJobCost measures Eq. 6 over a 512-node recursive-doubling job
// spread across every Theta leaf, with the leaf-pair cache ("opt") and the
// uncached reference loop ("ref"). The committed BENCH_*.json tracks the
// opt/ref pair.
func BenchmarkJobCost(b *testing.B) {
	topo := topology.Theta()
	st := cluster.New(topo)
	// Stripe ranks across all 12 leaves so the schedule's pairs span the
	// full distance and contention range.
	nodes := make([]int, 512)
	for i := range nodes {
		l := i % topo.NumLeaves()
		nodes[i] = topo.LeafNodes(l)[i/topo.NumLeaves()]
	}
	if err := st.Allocate(1, cluster.CommIntensive, nodes); err != nil {
		b.Fatal(err)
	}
	steps := collective.RD.MustSchedule(512)
	for _, mode := range []struct {
		name string
		ref  bool
	}{{"opt", false}, {"ref", true}} {
		b.Run(mode.name, func(b *testing.B) {
			SetReferenceMode(mode.ref)
			defer SetReferenceMode(false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := JobCost(st, nodes, steps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCandidateCostCold isolates the compile step: CandidateCost on
// a 512-rank RD candidate on Theta, cycling through more distinct node
// lists than the 64-slot binding ring holds, so every call binds afresh.
// "opt" binds the memoised plan by walking leaf runs; "ref" is the
// reference allocate-cost-release loop.
func BenchmarkCandidateCostCold(b *testing.B) {
	topo := topology.Theta()
	st := cluster.New(topo)
	// 97 candidates: two leaf runs of 256 nodes, offsets drawn from k.
	cands := make([][]int, 97)
	for k := range cands {
		a, c := k%110, (k*37)%110
		nodes := append([]int(nil), topo.LeafNodes(3)[a:a+256]...)
		cands[k] = append(nodes, topo.LeafNodes(8)[c:c+256]...)
	}
	for _, mode := range []struct {
		name string
		ref  bool
	}{{"opt", false}, {"ref", true}} {
		b.Run(mode.name, func(b *testing.B) {
			SetReferenceMode(mode.ref)
			defer SetReferenceMode(false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := CandidateCost(st, 1, cluster.CommIntensive, cands[i%len(cands)], collective.RD); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlanBuild reports the one-time plan cost of a Theta-paper run:
// one op compiles the plans of every distinct communication-intensive job
// size the paper's tagging draws over 32 seeded 300-job Theta traces (the
// ~430 sizes a run memoises in its first, untimed round).
func BenchmarkPlanBuild(b *testing.B) {
	mix := collective.SinglePattern(collective.RD, 0.7)
	seen := make(map[int]bool)
	var scheds [][]collective.Step
	var sizes []int
	for k := 0; k < 32; k++ {
		seed := int64(1000003 + k*7919 + 1)
		for _, j := range workload.Theta.Synthesize(300, seed).MustTag(0.9, mix, seed+1).Jobs {
			if j.Class == cluster.CommIntensive && !seen[j.Nodes] {
				seen[j.Nodes] = true
				sizes = append(sizes, j.Nodes)
				scheds = append(scheds, collective.RD.MustSchedule(j.Nodes))
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, s := range scheds {
			newPlan(s, sizes[k])
		}
	}
	b.ReportMetric(float64(len(sizes)), "sizes")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sizes)), "ns/plan")
}
