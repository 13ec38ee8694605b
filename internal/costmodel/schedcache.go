package costmodel

import (
	"sync"
	"sync/atomic"

	"repro/internal/collective"
)

// Schedule and plan memoization: a collective schedule — and its compiled
// Plan — is a pure function of (pattern, rank count), and the scheduler's
// hot paths reuse the same one repeatedly: the adaptive selector costs two
// candidates per request, the simulator costs the chosen and the
// reference allocation per job start, rank remapping's hill climb re-reads
// it for every swap, and every annealing engine prices moves through the
// plan. Entries are immutable; callers of ScheduleFor must never mutate
// the returned steps.

// maxMemoPairs bounds the memo by the rank pairs its schedules hold, so
// pathological traces (thousands of distinct or huge job sizes) cannot
// pin unbounded memory; once the budget is spent, new sizes are built
// fresh on every call. A pair costs ~24 bytes between schedule and plan
// (~36 once an engine has built the plan's CSR), so the bound is ~50–75
// MB. A Theta-paper run's ~430 recursive-doubling sizes hold ~345k pairs
// and a 4096-leaf wide-job run's ~220 sizes ~890k, so both stay resident;
// a count bound (the previous 256 entries) evicted the former's tail and
// admitted arbitrarily large alltoall schedules.
const maxMemoPairs = 1 << 21

type scheduleKey struct {
	p collective.Pattern
	n int
}

var (
	scheduleCache sync.Map // scheduleKey -> *Plan (holding its schedule)
	// planIndex maps a memoised schedule's identity (&steps[0]) to its
	// plan, so JobCost callers holding only the steps find the shared plan.
	planIndex sync.Map // *collective.Step -> *Plan
	memoPairs atomic.Int64
)

// ScheduleFor returns pattern's schedule at n ranks, memoized. The result
// is shared and must be treated as read-only. Reference mode bypasses the
// memo and builds fresh, preserving the seed behaviour for differential
// runs.
func ScheduleFor(p collective.Pattern, n int) ([]collective.Step, error) {
	if referenceMode.Load() {
		return p.Schedule(n)
	}
	pl, err := memoFor(p, n)
	if err != nil {
		return nil, err
	}
	return pl.steps, nil
}

// memoFor returns the plan of (p, n), building the schedule and its plan
// on a miss and keeping them while the pair budget allows.
func memoFor(p collective.Pattern, n int) (*Plan, error) {
	k := scheduleKey{p, n}
	if v, ok := scheduleCache.Load(k); ok {
		return v.(*Plan), nil
	}
	s, err := p.Schedule(n)
	if err != nil {
		return nil, err
	}
	pl := newPlan(s, n)
	w := int64(pl.pairs + len(s))
	if !reserveMemo(w) {
		return pl, nil
	}
	if v, loaded := scheduleCache.LoadOrStore(k, pl); loaded { //lint:allow globalmut bounded sync.Map memo insert; schedules and plans are immutable once built
		memoPairs.Add(-w) //lint:allow globalmut return the reservation of the entry another caller stored first
		return v.(*Plan), nil
	}
	if len(s) > 0 {
		planIndex.Store(&s[0], pl) //lint:allow globalmut identity index of the plan just memoised; plans are immutable once built
	}
	return pl, nil
}

// reserveMemo charges w pairs against the memo budget, reporting whether
// they fit.
func reserveMemo(w int64) bool {
	for {
		cur := memoPairs.Load()
		if cur+w > maxMemoPairs {
			return false
		}
		if memoPairs.CompareAndSwap(cur, cur+w) { //lint:allow globalmut budget reservation paired with the memo insert in memoFor
			return true
		}
	}
}

// planForSteps returns the plan of a non-empty steps slice: the memoised
// one when steps is a memoised schedule, else a fresh compilation.
func planForSteps(steps []collective.Step) *Plan {
	if v, ok := planIndex.Load(&steps[0]); ok {
		if pl := v.(*Plan); len(pl.steps) == len(steps) {
			return pl
		}
	}
	return newPlan(steps, 0)
}
