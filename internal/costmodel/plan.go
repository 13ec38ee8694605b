package costmodel

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/collective"
)

// Compiled collective plans.
//
// Everything Eq. 6 needs from a schedule except the node list is a pure
// function of the schedule itself: which steps are compute, empty or
// repeat steps, each step's message size, and which rank pairs each
// compute step holds. A Plan compiles that once per schedule — once per
// (pattern, rank count) through the memo beside ScheduleFor — and every
// candidate node list is then *bound* to it (leafagg.go) by walking leaf
// runs over the plan's sorted pair chains instead of visiting every rank
// pair. search.Engine consumes the same plan for its occurrence lists and
// rank -> occurrence CSR, so there is one schedule compiler.

// Step kinds of a compiled plan, shared by the costmodel kernels and
// search.Engine.
const (
	// StepCompute scans the step's pairs and updates the running max that
	// repeat steps reuse.
	StepCompute uint8 = iota
	// StepEmpty is a pair-less step: it contributes zero and leaves the
	// running max untouched (mirroring the reference loops, which only
	// update their memo for steps with pairs).
	StepEmpty
	// StepRepeat shares its Pairs backing array with the previous
	// non-empty step (the ring schedule repeats one matching P−1 times)
	// and is charged the memoised maximum.
	StepRepeat
)

// Plan is a collective schedule compiled at rank level: immutable after
// construction and shared by every evaluation, binding and engine built on
// it. It holds a strong reference to its steps, so the &steps[0] identity
// the compiled-schedule ring keys on can never be recycled while the plan
// lives.
type Plan struct {
	steps []collective.Step
	ranks int // rank count the CSR is sized for

	kind []uint8
	uniq []int32   // step -> unique compute step (repeat: the step it repeats)
	msg  []float64 // per-step MsgSize, for the hop-bytes variant

	// Unique compute step u holds the occurrences occA/occB[occOff[u]:
	// occOff[u+1]]: its rank pairs with A == B dropped (Hops(i,i) = 0 is
	// never the max), sorted by (A, B). They split into chains —
	// occurrences [chainOff[c], chainOff[c+1]) for c in [uChain[u],
	// uChain[u+1]) — along which A and B are both non-decreasing, the
	// property the binder's run walk relies on.
	occOff   []int32
	occA     []int32
	occB     []int32
	chainOff []int32
	uChain   []int32

	// minRank/maxRank bound every rank of every compute step's pairs, self
	// pairs included (maxRank < minRank when there are none), so a node
	// list is range-checked in O(1) and only a failing one rescans the
	// steps for the reference's first offender.
	minRank, maxRank int
	// pairs counts the rank pairs the plan's distinct Pairs arrays hold:
	// the weight the memo budget charges.
	pairs int

	// The rank -> occurrence CSR search.Engine prices moves through,
	// built on first use.
	csrOnce sync.Once
	occStep []int32
	rocOff  []int32
	rocIdx  []int32
}

// newPlan compiles steps for ranks ranks. It never fails: pairs out of
// range for a node list are reported when the list is bound (rangeError).
// Compilation is a cold path — plans are memoised — so it allocates
// freely.
func newPlan(steps []collective.Step, ranks int) *Plan {
	pl := &Plan{
		steps:   steps,
		ranks:   ranks,
		kind:    make([]uint8, len(steps)),
		uniq:    make([]int32, len(steps)),
		msg:     make([]float64, len(steps)),
		minRank: math.MaxInt,
		maxRank: math.MinInt,
	}
	// Size every array up front: one pass counts the unique steps and
	// their pairs.
	nu, np, widest := 0, 0, 0
	var prevPairs *collective.Pair
	for s := range steps {
		if ps := steps[s].Pairs; len(ps) > 0 && &ps[0] != prevPairs {
			prevPairs = &ps[0]
			nu++
			np += len(ps)
			widest = max(widest, len(ps))
		}
	}
	pl.occOff = make([]int32, 0, nu+1)
	pl.uChain = make([]int32, 0, nu+1)
	pl.chainOff = make([]int32, 0, 2*nu+1)
	pl.occA = make([]int32, 0, np)
	pl.occB = make([]int32, 0, np)
	prevPairs = nil
	buf := make([]collective.Pair, 0, widest)
	for s := range steps {
		step := &steps[s]
		pl.msg[s] = step.MsgSize
		if len(step.Pairs) == 0 {
			pl.kind[s] = StepEmpty
			continue
		}
		if prevPairs == &step.Pairs[0] {
			pl.kind[s] = StepRepeat
			pl.uniq[s] = int32(len(pl.occOff) - 1)
			continue
		}
		prevPairs = &step.Pairs[0]
		pl.kind[s] = StepCompute
		pl.uniq[s] = int32(len(pl.occOff))
		pl.occOff = append(pl.occOff, int32(len(pl.occA)))
		pl.uChain = append(pl.uChain, int32(len(pl.chainOff)))
		pl.pairs += len(step.Pairs)
		buf = buf[:0]
		for _, pr := range step.Pairs {
			pl.minRank = min(pl.minRank, pr.A, pr.B)
			pl.maxRank = max(pl.maxRank, pr.A, pr.B)
			if pr.A != pr.B {
				buf = append(buf, pr)
			}
		}
		if !slices.IsSortedFunc(buf, comparePairs) {
			slices.SortFunc(buf, comparePairs)
		}
		for i, pr := range buf {
			if i == 0 || pr.B < buf[i-1].B {
				pl.chainOff = append(pl.chainOff, int32(len(pl.occA)))
			}
			pl.occA = append(pl.occA, int32(pr.A))
			pl.occB = append(pl.occB, int32(pr.B))
		}
	}
	pl.occOff = append(pl.occOff, int32(len(pl.occA)))
	pl.uChain = append(pl.uChain, int32(len(pl.chainOff)))
	pl.chainOff = append(pl.chainOff, int32(len(pl.occA)))
	return pl
}

// comparePairs orders rank pairs by (A, B).
func comparePairs(x, y collective.Pair) int {
	if c := cmp.Compare(x.A, y.A); c != 0 {
		return c
	}
	return cmp.Compare(x.B, y.B)
}

// rangeError returns the reference loops' error for the first pair (in
// step order, pair order, repeat steps skipped) out of range for n nodes,
// or nil when every pair is in range.
func (pl *Plan) rangeError(n int) error {
	if pl.minRank >= 0 && pl.maxRank < n {
		return nil
	}
	for s, step := range pl.steps {
		if pl.kind[s] != StepCompute {
			continue
		}
		for _, p := range step.Pairs {
			if p.A < 0 || p.A >= n || p.B < 0 || p.B >= n {
				return fmt.Errorf("costmodel: step %d pair (%d,%d) out of range for %d nodes",
					s, p.A, p.B, n)
			}
		}
	}
	return nil
}

// PlanFor returns the compiled plan of pattern's schedule at n ranks,
// memoised with the schedule ScheduleFor returns (the plan's steps are
// that very slice). Reference mode bypasses the memo and compiles a fresh
// schedule, like ScheduleFor. The plan is shared and read-only.
func PlanFor(p collective.Pattern, n int) (*Plan, error) {
	if referenceMode.Load() {
		steps, err := p.Schedule(n)
		if err != nil {
			return nil, err
		}
		return newPlan(steps, n), nil
	}
	return memoFor(p, n)
}

// Kinds returns the per-step kinds (StepCompute, StepEmpty, StepRepeat).
func (pl *Plan) Kinds() []uint8 { return pl.kind }

// Uniq maps each compute or repeat step to its unique compute step: the
// index u of its occurrence range in Occurrences.
func (pl *Plan) Uniq() []int32 { return pl.uniq }

// Occurrences returns the flattened rank pairs of the unique compute
// steps, self pairs dropped: unique step u owns a[off[u]:off[u+1]] and
// b[off[u]:off[u+1]]. All three slices are shared and read-only.
func (pl *Plan) Occurrences() (a, b, off []int32) { return pl.occA, pl.occB, pl.occOff }

// RankOccurrences returns the occurrence -> unique step map and the rank
// -> occurrence CSR over the plan's ranks: rank r appears (as A or B) in
// the occurrences idx[off[r]:off[r+1]]. Built once per plan on first use;
// the slices are shared and read-only.
func (pl *Plan) RankOccurrences() (step, off, idx []int32) {
	pl.csrOnce.Do(pl.buildCSR)
	return pl.occStep, pl.rocOff, pl.rocIdx
}

// buildCSR fills the occurrence -> step map and the rank CSR.
func (pl *Plan) buildCSR() {
	pl.occStep = make([]int32, len(pl.occA))
	for u := 0; u+1 < len(pl.occOff); u++ {
		for i := pl.occOff[u]; i < pl.occOff[u+1]; i++ {
			pl.occStep[i] = int32(u)
		}
	}
	p := max(pl.ranks, pl.maxRank+1) // maxRank is MinInt without pairs
	pl.rocOff = make([]int32, p+1)
	for i := range pl.occA {
		pl.rocOff[pl.occA[i]+1]++
		pl.rocOff[pl.occB[i]+1]++
	}
	for r := 0; r < p; r++ {
		pl.rocOff[r+1] += pl.rocOff[r]
	}
	pl.rocIdx = make([]int32, pl.rocOff[p])
	fill := slices.Clone(pl.rocOff[:p])
	for i := range pl.occA {
		a, b := pl.occA[i], pl.occB[i]
		pl.rocIdx[fill[a]] = int32(i)
		fill[a]++
		pl.rocIdx[fill[b]] = int32(i)
		fill[b]++
	}
}
