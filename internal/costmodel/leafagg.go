package costmodel

import (
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/collective"
)

// Leaf-aggregated cost kernel.
//
// Eq. 6 evaluates, per schedule step, the maximum of Eq. 5's
// Hops(i,j) = d(i,j)·(1+C(i,j)) over the step's rank pairs. For i ≠ j both
// factors depend on the nodes only through their leaf switches, so the
// step's node pairs regroup by leaf pair: a pair (l_a, l_b) that m node
// pairs map onto contributes the term Hops(l_a, l_b) with multiplicity m,
// and since max over a multiset equals max over its support, the step
// reduces to the distinct leaf pairs it touches — O(L²) terms for L
// occupied leaves instead of O(n²) node pairs (see DESIGN.md §7 for the
// term-for-term derivation). The regrouping itself is independent of the
// cluster state: it is a pure function of (plan, node→leaf map), so it is
// bound once into a leafSchedule and reused across generations, with only
// the per-pair Hops values re-read from the live counters.

// leafSchedule is a plan bound to one node list: the candidate's per-leaf
// node counts, the distinct leaf pairs its steps touch, and per-step index
// lists into that pair table. Entries are immutable after construction
// and safe for concurrent evaluation; all mutable evaluation state lives
// in pooled scratches.
type leafSchedule struct {
	lay   *cluster.Layout
	plan  *Plan
	sid   *collective.Step // identity of the steps slice (&steps[0])
	hash  uint64
	nodes []int32 // the node list (cache key)

	// Per-step data shared with the plan: nSteps steps, their kinds and
	// MsgSize (the hop-bytes weights).
	nSteps int
	kind   []uint8
	msg    []float64

	// leaves/counts are the distinct leaf indices hosting the job's nodes
	// and the node count c_i on each — the histogram the candidate overlay
	// adds to the live L_comm counters.
	leaves []int32
	counts []int32

	// pairLi/pairLj list the distinct leaf pairs (li ≤ lj, real leaf
	// indices) any step touches; ids is the per-step flat list of indices
	// into that table (ids[off[s]:off[s+1]] for step s).
	pairLi, pairLj []int32
	ids            []int32
	off            []int32

	// agg is the subtree-aggregated evaluation stage (subtreeagg.go),
	// compiled when the schedule is wide enough for the kernel heuristic
	// and the layout has a usable aggregation level; nil keeps evaluation
	// on the flat per-pair scans. Always compiled when applicable — the
	// run-time toggle gates evaluation, not compilation, so flipping it
	// never invalidates cached schedules.
	agg *subtreeSchedule
}

// hashNodes fingerprints a node list (FNV-1a) for the schedule cache's
// cheap pre-comparison; full equality is always verified on a hash match.
func hashNodes(nodes []int) uint64 {
	h := uint64(1469598103934665603)
	for _, id := range nodes {
		h ^= uint64(id)
		h *= 1099511628211
	}
	return h
}

// sameNodes reports whether a binding's key is the node list.
func sameNodes(key []int32, nodes []int) bool {
	if len(key) != len(nodes) {
		return false
	}
	for i, id := range nodes {
		if int(key[i]) != id {
			return false
		}
	}
	return true
}

// leafSchedSlots bounds the compiled-schedule cache. The steady-state
// working set is small — the adaptive selector prices two candidates per
// request and the simulator re-costs the chosen one — while unbounded
// candidate churn (rank remapping's hill climb) just cycles the ring.
// Binding is cheap on leaf-contiguous candidates, but a wide candidate on
// small leaves (2,048 ranks over 2-node leaves) has runs too short to skip
// anything, and there the ring's hits are what keep re-costing cheap.
const leafSchedSlots = 64

// leafSchedCache is the shared compiled-schedule cache: a mutex-guarded
// ring of immutable entries, keyed on (layout, steps identity, node list).
// Entries hold strong references to their plans and so to their steps
// slices, so a cached sid pointer can never be recycled for a different
// schedule. Like the schedule memo this assumes steps are never mutated
// after being costed; ScheduleFor's memoized schedules satisfy that by
// contract.
var leafSchedCache struct {
	mu   sync.Mutex
	ents [leafSchedSlots]*leafSchedule
	next int
}

// leafSchedFor returns the binding of nodes to steps, binding and
// caching it on first use; pl is steps' plan when the caller already
// holds it, else nil. steps must be non-empty; the returned entry is
// shared and read-only. Pair ranks are range-checked against the plan
// before binding, so a failure reproduces the reference loops' error.
func leafSchedFor(lay *cluster.Layout, nodes []int, steps []collective.Step, pl *Plan) (*leafSchedule, error) {
	sid := &steps[0]
	h := hashNodes(nodes)
	leafSchedCache.mu.Lock()
	for _, ls := range leafSchedCache.ents {
		if ls != nil && ls.sid == sid && ls.nSteps == len(steps) && ls.lay == lay &&
			ls.hash == h && sameNodes(ls.nodes, nodes) {
			leafSchedCache.mu.Unlock()
			return ls, nil
		}
	}
	leafSchedCache.mu.Unlock()
	if pl == nil {
		pl = planForSteps(steps)
	}
	if err := pl.rangeError(len(nodes)); err != nil {
		return nil, err
	}
	sc := bindScratchPool.Get().(*bindScratch)
	sc.bind(lay, pl, nodes)
	ls := sc.entry(lay, pl, nodes, h)
	foreign := sc.foreign
	bindScratchPool.Put(sc)
	ls.agg = buildSubtreeSchedule(lay, ls)
	if foreign {
		// A node ID outside the machine need not fit the int32 key. Such
		// lists reach only JobCost, which panics if a pair uses the node.
		return ls, nil
	}
	leafSchedCache.mu.Lock()
	leafSchedCache.ents[leafSchedCache.next] = ls                    //lint:allow globalmut ring-buffer memo insert under leafSchedCache.mu; entries are immutable once built
	leafSchedCache.next = (leafSchedCache.next + 1) % leafSchedSlots //lint:allow globalmut ring cursor advance under leafSchedCache.mu
	leafSchedCache.mu.Unlock()
	return ls, nil
}

// bindScratch is the pooled working set of one binding: epoch- and
// tag-stamped leaf, node and leaf-pair arrays that replace per-build maps,
// the per-rank leaf positions and run ends, and the output arrays a ring
// entry is then copied from. The leaf arrays are sized off the layout
// (O(L)), the node marks off the machine (O(N)); the pair arrays are
// indexed by *compact* touched-leaf positions, so they are O(touched²) —
// the sparse index that lets binding scale past dense L×L matrices (a job
// touching k leaves needs k² slots however large L is). Arrays grow on
// demand and persist in the pool; freshly grown stamp arrays are zeroed,
// which the monotone epoch/tag counters read as stale.
type bindScratch struct {
	leafPos   []int32 // real leaf -> touched-leaf position, valid per epoch
	leafEpoch []uint32
	nodeEpoch []uint32 // node id -> epoch that last listed it (duplicates)
	pairID    []int32  // compact pair -> index into pairLi, valid per epoch
	pairEpoch []uint32
	stepTag   []uint32 // compact pair -> tag of the step that last listed it
	epoch     uint32
	tag       uint32

	rpos   []int32 // rank -> touched-leaf position
	runEnd []int32 // rank -> first rank past its leaf run

	leaves, counts []int32
	pairLi, pairLj []int32
	ids, off       []int32
	nLeaves        int
	nPairs, nIDs   int
	touched        int  // leaves the pair arrays are indexed for
	foreign        bool // the list holds a node ID outside the machine
}

var bindScratchPool = sync.Pool{New: func() any { return new(bindScratch) }}

// grow sizes every array but the pair index for a binding of p ranks
// over a plan with occ occurrences and steps steps on lay.
func (sc *bindScratch) grow(lay *cluster.Layout, p, occ, steps int) {
	if len(sc.leafPos) < lay.L {
		sc.leafPos = make([]int32, lay.L)
		sc.leafEpoch = make([]uint32, lay.L)
	}
	if len(sc.nodeEpoch) < len(lay.NodeLeaf) {
		sc.nodeEpoch = make([]uint32, len(lay.NodeLeaf))
	}
	if len(sc.rpos) < p {
		sc.rpos = make([]int32, p)
		sc.runEnd = make([]int32, p)
	}
	if leaves := min(p, lay.L); len(sc.leaves) < leaves {
		sc.leaves = make([]int32, leaves)
		sc.counts = make([]int32, leaves)
	}
	if len(sc.ids) < occ {
		sc.ids = make([]int32, occ)
		sc.pairLi = make([]int32, occ)
		sc.pairLj = make([]int32, occ)
	}
	if len(sc.off) < steps+1 {
		sc.off = make([]int32, steps+1)
	}
}

// growPairs sizes the compact pair index for n touched leaves.
func (sc *bindScratch) growPairs(n int) {
	if len(sc.pairID) < n*n {
		sc.pairID = make([]int32, n*n)
		sc.pairEpoch = make([]uint32, n*n)
		sc.stepTag = make([]uint32, n*n)
	}
}

// bind binds nodes to pl into the scratch's output arrays; every pair
// rank of pl must be in range for nodes (pl.rangeError is nil).
//
// One O(p) pass maps each rank to its touched-leaf position, builds the
// leaf histogram and marks duplicate nodes; a backward pass then records,
// per rank r, runEnd[r], the first rank past r's run of consecutive ranks
// on the same leaf. Each chain of the plan (A and B non-decreasing) is
// walked from pair (a, b) straight to the first pair whose A reaches
// runEnd[a] or whose B reaches runEnd[b]: every pair skipped lies in the
// same two runs, so maps to the same leaf pair, and the max over a
// multiset equals the max over its support. Node lists with duplicate or
// out-of-range node IDs (possible only through JobCost) step one pair at
// a time and skip same-node pairs, as the reference loops do.
//
//caws:noalloc
func (sc *bindScratch) bind(lay *cluster.Layout, pl *Plan, nodes []int) {
	p := len(nodes)
	if len(sc.rpos) < p || len(sc.leaves) < min(p, lay.L) || len(sc.ids) < len(pl.occA) ||
		len(sc.off) <= len(pl.kind) || len(sc.leafPos) < lay.L || len(sc.nodeEpoch) < len(lay.NodeLeaf) {
		sc.grow(lay, p, len(pl.occA), len(pl.kind)) // grow path, cold once the pool is warm
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale stamps could collide
		clear(sc.leafEpoch)
		clear(sc.nodeEpoch)
		clear(sc.pairEpoch)
		sc.epoch = 1
	}
	epoch := sc.epoch
	nLeaves := 0
	slow, foreign := false, false
	for r, id := range nodes {
		if id < 0 || id >= len(lay.NodeLeaf) {
			slow, foreign = true, true // the pair walk indexes (and panics on) it as before
			continue
		}
		if sc.nodeEpoch[id] == epoch {
			slow = true
		}
		sc.nodeEpoch[id] = epoch
		l := lay.NodeLeaf[id]
		if sc.leafEpoch[l] != epoch {
			sc.leafEpoch[l] = epoch
			sc.leafPos[l] = int32(nLeaves)
			sc.leaves[nLeaves] = l
			sc.counts[nLeaves] = 0
			nLeaves++
		}
		pos := sc.leafPos[l]
		sc.counts[pos]++
		sc.rpos[r] = pos
	}
	if !slow && p > 0 {
		sc.runEnd[p-1] = int32(p)
		for r := p - 2; r >= 0; r-- {
			if sc.rpos[r] == sc.rpos[r+1] {
				sc.runEnd[r] = sc.runEnd[r+1]
			} else {
				sc.runEnd[r] = int32(r + 1)
			}
		}
	}
	if len(sc.pairID) < nLeaves*nLeaves {
		sc.growPairs(nLeaves) // grow path, cold once the pool is warm
	}
	sc.nLeaves, sc.nPairs, sc.nIDs, sc.touched, sc.foreign = nLeaves, 0, 0, nLeaves, foreign

	occA, occB := pl.occA, pl.occB
	for s, k := range pl.kind {
		sc.off[s] = int32(sc.nIDs)
		if k != StepCompute {
			continue
		}
		sc.tag++
		if sc.tag == 0 {
			clear(sc.stepTag)
			sc.tag = 1
		}
		u := pl.uniq[s]
		for c := pl.uChain[u]; c < pl.uChain[u+1]; c++ {
			i, end := int(pl.chainOff[c]), int(pl.chainOff[c+1])
			if slow {
				for ; i < end; i++ {
					na, nb := nodes[occA[i]], nodes[occB[i]]
					if na == nb {
						continue // Hops(i,i) = 0, never the max
					}
					sc.addPair(sc.leafPos[lay.NodeLeaf[na]], sc.leafPos[lay.NodeLeaf[nb]])
				}
				continue
			}
			for i < end {
				a, b := occA[i], occB[i]
				sc.addPair(sc.rpos[a], sc.rpos[b])
				i = runSpanEnd(occA, occB, i, end, sc.runEnd[a], sc.runEnd[b])
			}
		}
	}
	sc.off[len(pl.kind)] = int32(sc.nIDs)
}

// addPair lists the leaf pair of touched-leaf positions (pa, pb) for the
// current step, adding it to the pair table on first sight.
func (sc *bindScratch) addPair(pa, pb int32) {
	lo, hi := sc.leaves[pa], sc.leaves[pb]
	if lo > hi {
		lo, hi = hi, lo
		pa, pb = pb, pa
	}
	pidx := int(pa)*sc.touched + int(pb)
	if sc.pairEpoch[pidx] != sc.epoch {
		sc.pairEpoch[pidx] = sc.epoch
		sc.pairID[pidx] = int32(sc.nPairs)
		sc.pairLi[sc.nPairs] = lo
		sc.pairLj[sc.nPairs] = hi
		sc.nPairs++
	}
	if sc.stepTag[pidx] != sc.tag {
		sc.stepTag[pidx] = sc.tag
		sc.ids[sc.nIDs] = sc.pairID[pidx]
		sc.nIDs++
	}
}

// runSpanEnd returns the first index k in (i, end] such that k == end or
// pair k leaves the runs of pair i — A[k] >= ea or B[k] >= eb — galloping
// from i so a long run costs O(log run) probes and a run of one costs one.
// A and B must be non-decreasing on [i, end) (one plan chain).
func runSpanEnd(A, B []int32, i, end int, ea, eb int32) int {
	lo := i + 1
	if lo >= end || A[lo] >= ea || B[lo] >= eb {
		return lo
	}
	// lo is inside the runs; gallop until hi leaves them or passes end.
	hi := lo + 1
	for stride := 1; hi < end && A[hi] < ea && B[hi] < eb; stride <<= 1 {
		lo = hi
		hi = lo + stride
	}
	hi = min(hi, end)
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if A[mid] < ea && B[mid] < eb {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// entry copies the scratch's binding into a ring entry: the entry struct
// and one int32 slab holding its key and every per-binding array.
func (sc *bindScratch) entry(lay *cluster.Layout, pl *Plan, nodes []int, h uint64) *leafSchedule {
	nL, nP, nI, nO := sc.nLeaves, sc.nPairs, sc.nIDs, len(pl.kind)+1
	slab := make([]int32, len(nodes)+2*nL+2*nP+nI+nO)
	ls := &leafSchedule{
		lay:    lay,
		plan:   pl,
		sid:    &pl.steps[0],
		hash:   h,
		nSteps: len(pl.kind),
		kind:   pl.kind,
		msg:    pl.msg,
	}
	ls.nodes = slab[:len(nodes):len(nodes)]
	for i, id := range nodes {
		ls.nodes[i] = int32(id)
	}
	slab = slab[len(nodes):]
	ls.leaves, slab = carve(slab, sc.leaves[:nL])
	ls.counts, slab = carve(slab, sc.counts[:nL])
	ls.pairLi, slab = carve(slab, sc.pairLi[:nP])
	ls.pairLj, slab = carve(slab, sc.pairLj[:nP])
	ls.ids, slab = carve(slab, sc.ids[:nI])
	ls.off, _ = carve(slab, sc.off[:nO])
	return ls
}

// carve copies src into the front of slab, returning the copy (capacity
// clipped, so it can never grow into its neighbour) and the rest of slab.
func carve(slab, src []int32) (dst, rest []int32) {
	dst = slab[:len(src):len(src)]
	copy(dst, src)
	return dst, slab[len(src):]
}

// leafHops computes Eq. 5 between two leaves from the live counters,
// mirroring Hops/Contention expression for expression (same conversions,
// same association order), so kernel and reference evaluations are
// bit-identical.
//
//caws:noalloc
func leafHops(st *cluster.State, lay *cluster.Layout, li, lj int32) float64 {
	d := lay.Dist(li, lj)
	if li == lj {
		return d * (1 + st.CommShare(int(li)))
	}
	shared := 0.5 * float64(st.LeafComm(int(li))+st.LeafComm(int(lj))) / lay.PairSize(li, lj)
	return d * (1 + (st.CommShare(int(li)) + st.CommShare(int(lj)) + shared))
}

// evalScratch holds one evaluation's mutable state: the prefilled per-pair
// Hops values, the candidate overlay (leaf-indexed comm counts and shares,
// epoch-stamped so they reset in O(touched leaves)), and the duplicate-node
// mark used by candidate validation. The overlay arrays are arenas sized
// off the layout (grown on demand, then pooled), so large-L costing stays
// zero-alloc in the steady state; distinct concurrent evaluations draw
// distinct instances.
type evalScratch struct {
	pairVal []float64
	ovComm  []int
	ovShare []float64
	ovSet   []uint32
	ovEpoch uint32
	mark    []uint64
	markGen uint64

	// Aggregated-kernel arenas (subtreeagg.go): per touched subtree the
	// uniformity pass's shared (comm, size) state and verdict, per
	// cross-subtree block its collapsed value and non-uniform flag. Sized
	// by ensureAgg, fully rewritten each evaluation (no stamps needed).
	subComm    []int32
	subSize    []int32
	subUniform []bool
	blockVal   []float64
	blockNU    []bool
}

var evalScratchPool = sync.Pool{New: func() any { return new(evalScratch) }}

// ensureLeaves sizes the overlay arenas for a layout with l leaves.
// Growing discards the old stamps; the fresh zeroed ovSet reads as stale
// against the monotone ovEpoch, exactly like an epoch bump.
func (sc *evalScratch) ensureLeaves(l int) {
	if len(sc.ovSet) < l {
		sc.ovComm = make([]int, l)
		sc.ovShare = make([]float64, l)
		sc.ovSet = make([]uint32, l)
	}
}

// beginOverlay installs the schedule's leaf histogram as a comm-counter
// overlay: leaf l reads as L_comm(l) + c_l, with the share recomputed by
// the same division State.updateShare would store after a real Allocate —
// so overlay costing is bit-identical to tentative allocation.
func (sc *evalScratch) beginOverlay(st *cluster.State, lay *cluster.Layout, ls *leafSchedule) {
	sc.ensureLeaves(lay.L)
	sc.ovEpoch++
	if sc.ovEpoch == 0 { // wrapped: stale stamps could collide
		clear(sc.ovSet)
		sc.ovEpoch = 1
	}
	for i, l := range ls.leaves {
		comm := st.LeafComm(int(l)) + int(ls.counts[i])
		sc.ovComm[l] = comm
		sc.ovShare[l] = float64(comm) / lay.LeafSize[l]
		sc.ovSet[l] = sc.ovEpoch
	}
}

// overlayHops is leafHops with the candidate overlay applied to whichever
// endpoints it covers.
//
//caws:noalloc
func (sc *evalScratch) overlayHops(st *cluster.State, lay *cluster.Layout, li, lj int32) float64 {
	commI, shareI := st.LeafComm(int(li)), st.CommShare(int(li))
	if sc.ovSet[li] == sc.ovEpoch {
		commI, shareI = sc.ovComm[li], sc.ovShare[li]
	}
	d := lay.Dist(li, lj)
	if li == lj {
		return d * (1 + shareI)
	}
	commJ, shareJ := st.LeafComm(int(lj)), st.CommShare(int(lj))
	if sc.ovSet[lj] == sc.ovEpoch {
		commJ, shareJ = sc.ovComm[lj], sc.ovShare[lj]
	}
	shared := 0.5 * float64(commI+commJ) / lay.PairSize(li, lj)
	return d * (1 + (shareI + shareJ + shared))
}

// eval computes Eq. 6 (or its hop-bytes weighting) over the compiled
// schedule against the live state, optionally with the candidate overlay.
// Leaf-pair Hops are prefilled in the schedule's fixed pair order — one
// computation per distinct pair — then each step takes the max over its
// index list, so sums are reproducible regardless of caller concurrency.
//
//caws:noalloc
func (ls *leafSchedule) eval(st *cluster.State, overlay, hopBytes bool, baseMsgSize float64) float64 {
	if ls.aggEngaged() {
		return ls.evalAgg(st, overlay, hopBytes, baseMsgSize)
	}
	sc := evalScratchPool.Get().(*evalScratch)
	if cap(sc.pairVal) < len(ls.pairLi) {
		sc.pairVal = make([]float64, len(ls.pairLi))
	}
	pv := sc.pairVal[:len(ls.pairLi)]
	if overlay {
		sc.beginOverlay(st, ls.lay, ls)
		for p := range pv {
			pv[p] = sc.overlayHops(st, ls.lay, ls.pairLi[p], ls.pairLj[p])
		}
	} else {
		c := acquirePairCache(st, ls.lay)
		for p := range pv {
			pv[p] = c.at(ls.pairLi[p], ls.pairLj[p])
		}
		c.release()
	}
	total, prevMax := 0.0, 0.0
	for s := 0; s < ls.nSteps; s++ {
		var max float64
		switch ls.kind[s] {
		case StepEmpty:
			continue
		case StepRepeat:
			max = prevMax
		default:
			for _, id := range ls.ids[ls.off[s]:ls.off[s+1]] {
				if v := pv[id]; v > max {
					max = v
				}
			}
			prevMax = max
		}
		if hopBytes {
			total += max * ls.msg[s] * baseMsgSize
		} else {
			total += max
		}
	}
	evalScratchPool.Put(sc)
	return total
}

// evalDistance is eval for the distance-only ablation: per-step max of
// d(i,j) with no contention term. Distances are prefilled once per
// distinct leaf pair (they are derived on demand from the layout's
// ancestor chains, so one walk per pair, not one per step reference);
// each is the exact conversion of the reference's integer distance, so
// the float max equals the reference's converted integer max bit for bit.
//
//caws:noalloc
func (ls *leafSchedule) evalDistance() float64 {
	if ls.aggEngaged() {
		return ls.evalDistanceAgg()
	}
	lay := ls.lay
	sc := evalScratchPool.Get().(*evalScratch)
	if cap(sc.pairVal) < len(ls.pairLi) {
		sc.pairVal = make([]float64, len(ls.pairLi))
	}
	pv := sc.pairVal[:len(ls.pairLi)]
	for p := range pv {
		pv[p] = lay.Dist(ls.pairLi[p], ls.pairLj[p])
	}
	total, prevMax := 0.0, 0.0
	for s := 0; s < ls.nSteps; s++ {
		var max float64
		switch ls.kind[s] {
		case StepEmpty:
			continue
		case StepRepeat:
			max = prevMax
		default:
			for _, id := range ls.ids[ls.off[s]:ls.off[s+1]] {
				if v := pv[id]; v > max {
					max = v
				}
			}
			prevMax = max
		}
		total += max
	}
	evalScratchPool.Put(sc)
	return total
}

// validateCandidate rejects a candidate node list exactly as
// cluster.Allocate would — same checks, same order, same messages — but
// without touching the state, so candidate costing stays read-only (and
// therefore safe to run concurrently). The duplicate check uses the
// costmodel scratch's own mark, never State.allocMark.
func validateCandidate(st *cluster.State, job cluster.JobID, nodes []int) error {
	if job < 0 {
		return fmt.Errorf("cluster: job IDs must be non-negative, got %d", job)
	}
	if st.Allocation(job) != nil {
		return fmt.Errorf("cluster: job %d already allocated", job)
	}
	n := st.Topology().NumNodes()
	sc := evalScratchPool.Get().(*evalScratch)
	defer evalScratchPool.Put(sc)
	if cap(sc.mark) < n {
		sc.mark = make([]uint64, n)
	}
	sc.mark = sc.mark[:n]
	sc.markGen++
	for _, id := range nodes {
		if id < 0 || id >= n {
			return fmt.Errorf("cluster: job %d: node %d out of range", job, id)
		}
		if sc.mark[id] == sc.markGen {
			return fmt.Errorf("cluster: job %d: node %d listed twice", job, id)
		}
		sc.mark[id] = sc.markGen
		if owner := st.NodeJob(id); owner >= 0 {
			return fmt.Errorf("cluster: job %d: node %d busy (held by job %d)", job, id, owner)
		}
		if !st.NodeFree(id) {
			word := "drained"
			if st.NodeFailed(id) {
				word = "down (failed)"
			}
			return fmt.Errorf("cluster: job %d: node %d is %s: %w",
				job, id, word, cluster.ErrNodeUnavailable)
		}
	}
	return nil
}
