package costmodel

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/topology"
)

// TestNoAllocKernels is the runtime gate of the //caws:noalloc contract
// (DESIGN.md §8): after one warm-up call grows the pooled arenas and
// fills the schedule caches, the annotated evaluation kernels run the
// steady state with zero heap allocations — through the aggregated
// stage, the flat leaf-pair kernel, and the candidate overlay. The
// build-time halves of the contract are cawslint's noalloc analyzer and
// scripts/noalloc-check.sh's escape-diagnostic intersection; this test
// proves the sanctioned guarded grow branches really are cold once warm.
func TestNoAllocKernels(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the zero-alloc pin is measured without -race")
	}
	t.Cleanup(func() { SetAggregationMode(true) })

	// One resident node on each of the first 128 leaves of a 256-leaf
	// two-tier machine: wide enough to engage the subtree-aggregated
	// stage (AggTouchedLeaves = 96); the second node of each leaf forms
	// the candidate for the overlay path.
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 2, Fanouts: []int{16, 16}})
	st := cluster.New(topo)
	nodes := make([]int, 128)
	cand := make([]int, 128)
	for i := range nodes {
		ln := topo.LeafNodes(i)
		nodes[i] = ln[0]
		cand[i] = ln[1]
	}
	if err := st.Allocate(1, cluster.CommIntensive, nodes); err != nil {
		t.Fatal(err)
	}
	steps := collective.Alltoall.MustSchedule(len(nodes))
	if agg, err := ScheduleAggregated(st, nodes, steps); err != nil || !agg {
		t.Fatalf("fixture not on the aggregated path (agg=%v, err=%v)", agg, err)
	}

	check := func(name string, f func()) {
		t.Helper()
		f() // warm the pools, the schedule caches and the compiled kernels
		if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
			t.Errorf("%s: %.1f allocs per run, want 0 (//caws:noalloc contract)", name, allocs)
		}
	}
	for _, agg := range []bool{true, false} {
		SetAggregationMode(agg)
		label := "flat"
		if agg {
			label = "aggregated"
		}
		check(label+"/JobCost", func() {
			if _, err := JobCost(st, nodes, steps); err != nil {
				t.Fatal(err)
			}
		})
		check(label+"/JobCostHopBytes", func() {
			if _, err := JobCostHopBytes(st, nodes, steps, 3); err != nil {
				t.Fatal(err)
			}
		})
		check(label+"/JobCostMode(distance)", func() {
			if _, err := JobCostMode(st, nodes, steps, ModeDistanceOnly); err != nil {
				t.Fatal(err)
			}
		})
		check(label+"/CandidateCost", func() {
			if _, err := CandidateCost(st, cluster.JobID(99), cluster.CommIntensive, cand, collective.Alltoall); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestColdCandidateAllocs pins what pricing a candidate never seen before
// costs in heap allocations once the pools are warm: every call misses
// the 64-slot binding ring (the candidates cycle through more node lists
// than it holds) and the binder itself runs in pooled scratch, so the
// only allocations left are the ring entry's — its struct and one int32
// slab on the flat kernel, plus the subtree stage's compilation on the
// aggregated one.
func TestColdCandidateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the allocation pin is measured without -race")
	}
	const nCands = 3 * leafSchedSlots
	for _, tc := range []struct {
		name string
		topo *topology.Topology
		p    collective.Pattern
		want float64
		// cand builds the k-th candidate; all share one leaf structure,
		// so every binding allocates alike.
		cand func(topo *topology.Topology, k int) []int
	}{
		{"flat", topology.Theta(), collective.RD, 2, func(topo *topology.Topology, k int) []int {
			// 512 ranks in two leaf runs of 256 of the 366 nodes, their
			// offsets within the leaves drawn from k.
			a, b := k%110, k/110
			nodes := append([]int(nil), topo.LeafNodes(0)[a:a+256]...)
			return append(nodes, topo.LeafNodes(1)[b:b+256]...)
		}},
		{"aggregated", topology.MustGenerate(topology.Spec{NodesPerLeaf: 2, Fanouts: []int{16, 16}}),
			collective.RD, 60, func(topo *topology.Topology, k int) []int {
				// One rank on each of 128 leaves; bits of k pick the node.
				nodes := make([]int, 128)
				for i := range nodes {
					nodes[i] = topo.LeafNodes(i)[(k>>(i%8))&1]
				}
				return nodes
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := cluster.New(tc.topo)
			cands := make([][]int, nCands)
			for k := range cands {
				cands[k] = tc.cand(tc.topo, k)
			}
			steps, err := ScheduleFor(tc.p, len(cands[0]))
			if err != nil {
				t.Fatal(err)
			}
			agg, err := ScheduleAggregated(st, cands[0], steps)
			if err != nil || agg != (tc.name == "aggregated") {
				t.Fatalf("fixture on the wrong kernel (aggregated=%v, err=%v)", agg, err)
			}
			next := 0
			price := func() {
				if _, err := CandidateCost(st, 5, cluster.CommIntensive, cands[next%nCands], tc.p); err != nil {
					t.Fatal(err)
				}
				next++
			}
			for range nCands {
				price() // warm the pools and the plan memo
			}
			allocs := testing.AllocsPerRun(2*leafSchedSlots, price)
			t.Logf("%s: %.2f allocs per cold candidate", tc.name, allocs)
			if allocs != tc.want {
				t.Errorf("%s: %.2f allocs per cold candidate, want %v", tc.name, allocs, tc.want)
			}
		})
	}
}
