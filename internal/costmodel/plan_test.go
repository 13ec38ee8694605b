package costmodel

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/topology"
)

// TestPlanIdentity pins plan sharing: the same (pattern, n) returns the
// same plan, compiled over the very schedule ScheduleFor returns, and a
// JobCost caller holding only those steps binds against that plan; the
// same node list hits the same binding, while different node lists get
// distinct bindings over the one shared plan.
func TestPlanIdentity(t *testing.T) {
	st := leafAggState(t)
	lay := cluster.LayoutOf(st.Topology())
	p1, err := PlanFor(collective.RD, 4)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := PlanFor(collective.RD, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("same (pattern, n) compiled two plans")
	}
	steps, err := ScheduleFor(collective.RD, 4)
	if err != nil {
		t.Fatal(err)
	}
	if &p1.steps[0] != &steps[0] {
		t.Error("plan does not compile the memoised schedule")
	}
	if p3, _ := PlanFor(collective.RD, 5); p3 == p1 {
		t.Error("different rank counts share a plan")
	}

	nodesA := []int{2, 3, 6, 10}
	nodesB := []int{2, 3, 6, 11}
	lsA1, err := leafSchedFor(lay, nodesA, steps, nil)
	if err != nil {
		t.Fatal(err)
	}
	lsA2, err := leafSchedFor(lay, nodesA, steps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lsA1 != lsA2 {
		t.Error("same (steps, nodes) bound twice")
	}
	lsB, err := leafSchedFor(lay, nodesB, steps, p1)
	if err != nil {
		t.Fatal(err)
	}
	if lsB == lsA1 {
		t.Error("different node lists share a binding")
	}
	if lsA1.plan != p1 || lsB.plan != p1 {
		t.Error("bindings of a memoised schedule do not share its plan")
	}
}

// TestScheduleMemoHoldsManySizes is the regression test for the
// saturating memo: a Theta trace draws ~430 distinct job sizes, past the
// old 256-entry cap, so every later size was rebuilt — schedule and plan —
// on every call. 512 distinct RD sizes must all come back identical, by
// pointer, on a second call.
func TestScheduleMemoHoldsManySizes(t *testing.T) {
	type got struct {
		sid *collective.Step
		pl  *Plan
	}
	first := make(map[int]got)
	for n := 2; n < 2+512; n++ {
		steps, err := ScheduleFor(collective.RD, n)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := PlanFor(collective.RD, n)
		if err != nil {
			t.Fatal(err)
		}
		first[n] = got{&steps[0], pl}
	}
	for n, want := range first {
		steps, _ := ScheduleFor(collective.RD, n)
		pl, _ := PlanFor(collective.RD, n)
		if &steps[0] != want.sid || pl != want.pl {
			t.Fatalf("RD at %d ranks rebuilt on the second call", n)
		}
		if &pl.steps[0] != want.sid {
			t.Fatalf("RD at %d ranks: plan and schedule diverge", n)
		}
	}
	if used := memoPairs.Load(); used > maxMemoPairs {
		t.Errorf("memo holds %d pairs, past its %d budget", used, maxMemoPairs)
	}
}

// TestScheduleMemoBudget checks the pair bound: once the budget is spent a
// new size is built fresh on every call (still correct, never memoised),
// and sizes memoised before stay shared.
func TestScheduleMemoBudget(t *testing.T) {
	kept, err := PlanFor(collective.Binomial, 37)
	if err != nil {
		t.Fatal(err)
	}
	saved := memoPairs.Load()
	memoPairs.Store(maxMemoPairs)
	defer memoPairs.Store(saved)

	const n = 3001 // a size no other test memoises
	a, err := ScheduleFor(collective.RHVD, n)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ScheduleFor(collective.RHVD, n)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] == &b[0] {
		t.Error("a size past the budget was memoised")
	}
	if len(a) != collective.RHVD.NumSteps(n) {
		t.Errorf("unmemoised schedule has %d steps, want %d", len(a), collective.RHVD.NumSteps(n))
	}
	if again, _ := PlanFor(collective.Binomial, 37); again != kept {
		t.Error("a memoised plan was dropped when the budget filled")
	}
	if memoPairs.Load() != maxMemoPairs {
		t.Error("an unmemoised size charged the budget")
	}
}

// bindingMachine is the parity suite's machine: 16 leaves of 24 nodes in
// 4 pods, so node lists can fill leaves, split them, or stripe them.
func bindingMachine(t testing.TB) *cluster.State {
	t.Helper()
	topo := topology.MustGenerate(topology.Spec{NodesPerLeaf: 24, Fanouts: []int{4, 4}})
	st := cluster.New(topo)
	// A resident comm job on two leaves makes contention non-uniform.
	if err := st.Allocate(900, cluster.CommIntensive, []int{0, 1, 2, 30, 31}); err != nil {
		t.Fatal(err)
	}
	return st
}

// freeNodes returns the free nodes of leaf l, ascending.
func freeNodes(st *cluster.State, l int) []int {
	var out []int
	for _, id := range st.Topology().LeafNodes(l) {
		if st.NodeFree(id) {
			out = append(out, id)
		}
	}
	return out
}

// bindingShape builds an n-node list on st in one of the run shapes the
// selectors and remapping produce.
func bindingShape(st *cluster.State, shape string, n int, rng *rand.Rand) []int {
	L := st.Topology().NumLeaves()
	var nodes []int
	switch shape {
	case "single-leaf": // one run: the whole job on one leaf
		nodes = freeNodes(st, 5)[:min(n, 24)]
		for l := 6; len(nodes) < n; l++ {
			nodes = append(nodes, freeNodes(st, l)...)
		}
	case "contiguous": // default/greedy: leaf after leaf, uneven takes
		for l := 0; len(nodes) < n; l = (l + 1) % L {
			free := freeNodes(st, l)
			nodes = append(nodes, free[:min(len(free), 1+(l*7)%len(free))]...)
		}
	case "split-leaf": // balanced's second pass: one leaf in two runs
		a, b := freeNodes(st, 3), freeNodes(st, 9)
		nodes = append(nodes, a[:len(a)/2]...)
		nodes = append(nodes, b...)
		nodes = append(nodes, a[len(a)/2:]...)
		for l := 10; len(nodes) < n; l++ {
			nodes = append(nodes, freeNodes(st, l)...)
		}
	case "striped": // runs of one: round-robin over the leaves
		for i := 0; len(nodes) < n; i++ {
			nodes = append(nodes, freeNodes(st, i%L)[i/L])
		}
	case "permuted": // mapping.Remap: contiguous nodes in permuted rank order
		for l := 2; len(nodes) < n; l++ {
			nodes = append(nodes, freeNodes(st, l)...)
		}
		nodes = nodes[:n]
		rng.Shuffle(n, func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	case "duplicates": // JobCost only: repeated node IDs, self pairs included
		base := freeNodes(st, 4)
		for i := 0; len(nodes) < n; i++ {
			nodes = append(nodes, base[(i*i+i/3)%7])
		}
	}
	return nodes[:n]
}

// refLeafPairs is the reference regrouping of one step: the distinct leaf
// pairs (lo ≤ hi) its node pairs map to, self node pairs skipped — the
// node-pair loop a binding must reproduce.
func refLeafPairs(lay *cluster.Layout, nodes []int, pairs []collective.Pair) [][2]int32 {
	var out [][2]int32
	for _, p := range pairs {
		na, nb := nodes[p.A], nodes[p.B]
		if na == nb {
			continue
		}
		lo, hi := lay.NodeLeaf[na], lay.NodeLeaf[nb]
		if lo > hi {
			lo, hi = hi, lo
		}
		out = append(out, [2]int32{lo, hi})
	}
	return sortedPairs(out)
}

func sortedPairs(ps [][2]int32) [][2]int32 {
	slices.SortFunc(ps, func(x, y [2]int32) int {
		if c := cmp.Compare(x[0], y[0]); c != 0 {
			return c
		}
		return cmp.Compare(x[1], y[1])
	})
	return slices.Compact(ps)
}

// checkBindingParity compares a binding term for term with the reference
// regrouping (per-step leaf-pair sets and the leaf histogram) and its
// Eq. 6 values bit for bit with the reference loops.
func checkBindingParity(t *testing.T, st *cluster.State, nodes []int, steps []collective.Step, candidate bool, p collective.Pattern) {
	t.Helper()
	lay := cluster.LayoutOf(st.Topology())
	ls, err := leafSchedFor(lay, nodes, steps, nil)
	if err != nil {
		t.Fatal(err)
	}
	var prev *collective.Pair
	for s, step := range steps {
		var want [][2]int32
		if len(step.Pairs) > 0 && &step.Pairs[0] != prev {
			want = refLeafPairs(lay, nodes, step.Pairs)
			prev = &step.Pairs[0]
		}
		var gotPairs [][2]int32
		for _, id := range ls.ids[ls.off[s]:ls.off[s+1]] {
			gotPairs = append(gotPairs, [2]int32{ls.pairLi[id], ls.pairLj[id]})
		}
		if n := len(gotPairs); len(sortedPairs(gotPairs)) != n {
			t.Fatalf("step %d lists a leaf pair twice", s)
		}
		if !slices.Equal(gotPairs, want) {
			t.Fatalf("step %d: bound leaf pairs %v, reference %v", s, gotPairs, want)
		}
	}
	hist := make(map[int32]int32)
	for _, id := range nodes {
		hist[lay.NodeLeaf[id]]++
	}
	if len(hist) != len(ls.leaves) {
		t.Fatalf("histogram has %d leaves, reference %d", len(ls.leaves), len(hist))
	}
	for i, l := range ls.leaves {
		if hist[l] != ls.counts[i] {
			t.Fatalf("leaf %d: count %d, reference %d", l, ls.counts[i], hist[l])
		}
	}

	costs := func() []float64 {
		c, err := JobCost(st, nodes, steps)
		if err != nil {
			t.Fatal(err)
		}
		hb, err := JobCostHopBytes(st, nodes, steps, 3)
		if err != nil {
			t.Fatal(err)
		}
		d, err := JobCostMode(st, nodes, steps, ModeDistanceOnly)
		if err != nil {
			t.Fatal(err)
		}
		out := []float64{c, hb, d}
		if candidate {
			cc, err := CandidateCost(st, 77, cluster.CommIntensive, nodes, p)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, cc)
		}
		return out
	}
	fast := costs()
	cluster.SetReferenceMode(true)
	SetReferenceMode(true)
	defer func() {
		cluster.SetReferenceMode(false)
		SetReferenceMode(false)
	}()
	ref := costs()
	for i := range fast {
		if math.Float64bits(fast[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("cost %d: bound %v, reference %v", i, fast[i], ref[i])
		}
	}
}

// TestBindingParity drives the run-walking binder through every pattern,
// power-of-two and other sizes, and every run shape the selectors produce
// — one leaf, contiguous runs, a leaf split into two runs, runs of one,
// permuted rank orders, and duplicate nodes through JobCost — requiring
// the reference regrouping term for term and the reference Eq. 6 values
// bit for bit. TestPairRangeErrorParity covers out-of-range pairs.
func TestBindingParity(t *testing.T) {
	t.Cleanup(func() {
		cluster.SetReferenceMode(false)
		SetReferenceMode(false)
	})
	st := bindingMachine(t)
	patterns := []collective.Pattern{collective.RD, collective.RHVD, collective.Binomial,
		collective.Ring, collective.Stencil, collective.Alltoall}
	shapes := []string{"single-leaf", "contiguous", "split-leaf", "striped", "permuted", "duplicates"}
	rng := rand.New(rand.NewPCG(1, 2))
	for _, p := range patterns {
		for _, n := range []int{2, 3, 7, 16, 24, 45, 64, 100} {
			for _, shape := range shapes {
				t.Run(fmt.Sprintf("%v/%d/%s", p, n, shape), func(t *testing.T) {
					nodes := bindingShape(st, shape, n, rng)
					steps, err := ScheduleFor(p, n)
					if err != nil {
						t.Fatal(err)
					}
					if len(steps) == 0 {
						t.Skip("no steps")
					}
					checkBindingParity(t, st, nodes, steps, shape != "duplicates", p)
				})
			}
		}
	}
}

// TestPlanChains pins the chain split the run walk relies on: RD, RHVD
// and binomial steps are one chain each, ring is two, and along every
// chain of every pattern (stencil and alltoall split as their pairs fall)
// A and B never decrease.
func TestPlanChains(t *testing.T) {
	for _, tc := range []struct {
		p      collective.Pattern
		n      int
		chains int // per compute step, 0 = unchecked
	}{
		{collective.RD, 64, 1}, {collective.RD, 100, 1}, {collective.RHVD, 48, 1},
		{collective.Binomial, 77, 1}, {collective.Ring, 50, 2},
		{collective.Stencil, 36, 0}, {collective.Alltoall, 12, 0}, {collective.Alltoall, 16, 0},
	} {
		pl, err := PlanFor(tc.p, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u+1 < len(pl.uChain); u++ {
			if got := int(pl.uChain[u+1] - pl.uChain[u]); tc.chains > 0 && got != tc.chains {
				t.Errorf("%v/%d: unique step %d has %d chains, want %d", tc.p, tc.n, u, got, tc.chains)
			}
			for c := pl.uChain[u]; c < pl.uChain[u+1]; c++ {
				for i := pl.chainOff[c] + 1; i < pl.chainOff[c+1]; i++ {
					if pl.occA[i] < pl.occA[i-1] || pl.occB[i] < pl.occB[i-1] {
						t.Fatalf("%v/%d: chain %d decreases at occurrence %d", tc.p, tc.n, c, i)
					}
				}
			}
		}
	}
}

// FuzzPlanBinding fuzzes node lists × patterns against the reference
// regrouping and the reference Eq. 6 loops: the fuzzer picks the pattern,
// the rank count, and a node list built from leaf runs of fuzzer-chosen
// lengths, starts and order (duplicates allowed, so JobCost's step-by-pair
// path is covered too).
func FuzzPlanBinding(f *testing.F) {
	f.Add(uint8(0), uint16(64), uint64(1), false)
	f.Add(uint8(3), uint16(45), uint64(7), true)
	f.Add(uint8(5), uint16(24), uint64(99), false)
	f.Add(uint8(4), uint16(100), uint64(3), true)
	st := bindingMachine(f)
	topo := st.Topology()
	patterns := []collective.Pattern{collective.RD, collective.RHVD, collective.Binomial,
		collective.Ring, collective.Stencil, collective.Alltoall}
	f.Fuzz(func(t *testing.T, pat uint8, n uint16, seed uint64, dups bool) {
		t.Cleanup(func() {
			cluster.SetReferenceMode(false)
			SetReferenceMode(false)
		})
		p := patterns[int(pat)%len(patterns)]
		ranks := 2 + int(n)%150
		rng := rand.New(rand.NewPCG(seed, uint64(ranks)))
		// Leaf runs of random length from random leaves, in random
		// order; without dups each node is taken at most once.
		taken := make(map[int]bool)
		var nodes []int
		for len(nodes) < ranks {
			l := rng.IntN(topo.NumLeaves())
			free := freeNodes(st, l)
			run := 1 + rng.IntN(len(free))
			for _, id := range free[rng.IntN(len(free)-run+1):] {
				if run == 0 || len(nodes) == ranks {
					break
				}
				if taken[id] && !dups {
					continue
				}
				taken[id] = true
				nodes = append(nodes, id)
				run--
			}
		}
		if rng.IntN(4) == 0 {
			rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
		}
		steps, err := ScheduleFor(p, ranks)
		if err != nil {
			t.Fatal(err)
		}
		distinct := len(taken) == len(nodes)
		checkBindingParity(t, st, nodes, steps, distinct, p)
	})
}
