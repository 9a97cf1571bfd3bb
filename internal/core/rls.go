package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"storagesched/internal/bounds"
	"storagesched/internal/dag"
	"storagesched/internal/exact"
	"storagesched/internal/model"
)

// TieBreak selects the arbitrary total order Algorithm 2 uses to break
// ties between tasks that can start equally soon. Corollary 4 uses SPT
// on independent tasks; the others are natural ablation choices.
type TieBreak int

const (
	// TieByID orders tasks by index — the paper's "arbitrary total
	// ordering".
	TieByID TieBreak = iota
	// TieSPT prefers shorter processing times (Section 5.2).
	TieSPT
	// TieLPT prefers longer processing times.
	TieLPT
	// TieBottomLevel prefers tasks with the longest remaining chain
	// (critical-path-first), the classic DAG list-scheduling priority.
	TieBottomLevel
)

// numTies is the number of tie-break rules; a TieBreak outside
// [0, numTies) is unknown.
const numTies = 4

// checkTie rejects an unknown tie-break.
func checkTie(tie TieBreak) error {
	if tie < 0 || tie >= numTies {
		return fmt.Errorf("core: unknown tie break %d", int(tie))
	}
	return nil
}

// byTie holds one prepared order or rank slice per tie-break, nil where
// the tie-break was not prepared. A prepared slice is non-nil even for
// an empty instance.
type byTie [numTies][]int

// get returns the slice prepared for tie.
func (t *byTie) get(tie TieBreak) ([]int, error) {
	if checkTie(tie) != nil || t[tie] == nil {
		return nil, fmt.Errorf("core: tie-break %s not prepared", tie)
	}
	return t[tie], nil
}

// String implements fmt.Stringer for experiment tables.
func (t TieBreak) String() string {
	switch t {
	case TieByID:
		return "ID"
	case TieSPT:
		return "SPT"
	case TieLPT:
		return "LPT"
	case TieBottomLevel:
		return "BLevel"
	}
	return fmt.Sprintf("TieBreak(%d)", int(t))
}

// RLSResult is the outcome of one RLS∆ run together with the
// quantities the analysis of Lemmas 4–5 tracks.
type RLSResult struct {
	Delta float64

	// Schedule is the (π, σ) pair returned by Algorithm 2.
	Schedule *model.Schedule

	// LB is the Graham memory lower bound max(max s_i, ⌈Σs_i/m⌉)
	// computed at the top of the algorithm.
	LB model.Mem

	// Cap is the per-processor memory budget actually enforced,
	// ⌊∆·LB⌋ (or the explicit cap for the constrained variant).
	Cap model.Mem

	// Marked[j] is true if processor j was ever skipped because its
	// memory load made it infeasible for some ready task while a
	// higher-loaded processor was chosen (the "marked" processors of
	// Lemma 4).
	Marked []bool

	// Cmax and Mmax are the achieved objectives.
	Cmax model.Time
	Mmax model.Mem
	// SumCi is Σ_i (σ(i)+p_i), used by the tri-objective analysis.
	SumCi model.Time
}

// MarkedCount returns the number of marked processors; Lemma 4 proves
// it never exceeds ⌊m/(∆−1)⌋.
func (r *RLSResult) MarkedCount() int {
	c := 0
	for _, b := range r.Marked {
		if b {
			c++
		}
	}
	return c
}

// RLSCmaxRatio returns the Lemma 5 guarantee on the makespan,
// 2 + 1/(∆−2) − (∆−1)/(m(∆−2)), for ∆ > 2. For 2 < ∆ where the |CP|
// coefficient 1 − (∆−1)/(m(∆−2)) would be negative (very small ∆ or
// m), the bound degenerates to 1 + 1/(∆−2) because the |CP| term only
// helps; the returned value accounts for that. It returns +Inf for
// ∆ ≤ 2 (no guarantee exists there, cf. Lemma 4's discussion).
func RLSCmaxRatio(delta float64, m int) float64 {
	if delta <= 2 {
		return math.Inf(1)
	}
	work := 1 + 1/(delta-2)
	cp := 1 - (delta-1)/(float64(m)*(delta-2))
	if cp < 0 {
		cp = 0
	}
	return work + cp
}

// RLSSumCiRatio returns the Corollary 4 guarantee on ΣCi for the SPT
// variant: 2 + 1/(∆−2) (equivalently 1/ρ + 1 with ρ = (∆−2)/(∆−1),
// Lemma 6). +Inf for ∆ ≤ 2.
func RLSSumCiRatio(delta float64) float64 {
	if delta <= 2 {
		return math.Inf(1)
	}
	return 2 + 1/(delta-2)
}

// MemCap returns the per-processor budget ⌊∆·LB⌋ that RLS∆ enforces,
// exported for sweep engines that memoize LB per instance and derive
// each grid point's cap from it. ∆ is a float64 and hence an exact
// rational; the floor is evaluated by exact.FloorMul's overflow-checked
// integer kernel. It reports an error for non-finite ∆ (which has no
// exact rational form) and a range error when ⌊∆·LB⌋ exceeds int64 —
// which previously truncated silently through big.Rat → Int64().
func MemCap(delta float64, lb model.Mem) (model.Mem, error) {
	cap, err := exact.FloorMul(delta, lb)
	if err != nil {
		return 0, fmt.Errorf("core: memory cap floor(%g*%d): %w", delta, lb, err)
	}
	return cap, nil
}

// deltaCap validates the RLS parameter and returns its budget
// ⌊∆·LB⌋. ∆ must be a finite number ≥ 2: Lemma 4 gives no guarantee
// below 2, and a non-finite ∆ has no exact rational form.
func deltaCap(delta float64, lb model.Mem) (model.Mem, error) {
	if math.IsNaN(delta) || math.IsInf(delta, 0) {
		return 0, fmt.Errorf("core: RLS delta = %g is not finite", delta)
	}
	if delta < 2 {
		return 0, fmt.Errorf("core: RLS delta = %g, need delta >= 2 (Lemma 4)", delta)
	}
	return MemCap(delta, lb)
}

// RLS runs Algorithm 2 (Restricted List Scheduling) on a task DAG with
// parameter ∆ ≥ 2. It schedules, at each step, the ready task that can
// start the soonest on its least-loaded memory-feasible processor,
// breaking start-time ties with the given order. For ∆ ≥ 2 a feasible
// processor always exists (the counting argument behind Lemma 4), so
// the only error conditions are malformed inputs.
func RLS(g *dag.Graph, delta float64, tie TieBreak) (*RLSResult, error) {
	prep, err := PrepareRLS(g, tie)
	if err != nil {
		return nil, err
	}
	return prep.Run(delta, tie)
}

// RLSWithCap runs the same loop with an explicit per-processor memory
// budget instead of ∆·LB — the form the Section 7 constrained solver
// needs. It fails with ErrCapTooSmall when some ready task fits on no
// processor, which can only happen for caps below 2·LB.
func RLSWithCap(g *dag.Graph, cap model.Mem, tie TieBreak) (*RLSResult, error) {
	prep, err := PrepareRLS(g, tie)
	if err != nil {
		return nil, err
	}
	return prep.RunWithCap(cap, tie)
}

// ErrCapTooSmall reports that the explicit memory cap made some task
// unplaceable.
type ErrCapTooSmall struct {
	Task int
	Cap  model.Mem
}

func (e ErrCapTooSmall) Error() string {
	return fmt.Sprintf("core: task %d fits on no processor under memory cap %d", e.Task, e.Cap)
}

// tieOrderFrom returns the scheduling priority order of a known
// tie-break rule on a graph: order[r] is the task scheduled r-th when
// all else is equal. The bottom levels are supplied by the caller (nil
// unless tie is TieBottomLevel), so PrepareRLS computes them once per
// graph instead of once per tie-break. Each key is completed by the
// task index, so the unstable sort yields exactly the stable order over
// the identity permutation.
func tieOrderFrom(g *dag.Graph, tie TieBreak, bottom []model.Time) []int {
	order := identityOrder(g.N())
	switch tie {
	case TieByID:
		// identity
	case TieSPT:
		slices.SortFunc(order, func(a, b int) int { return cmp.Or(cmp.Compare(g.P[a], g.P[b]), a-b) })
	case TieLPT:
		slices.SortFunc(order, func(a, b int) int { return cmp.Or(cmp.Compare(g.P[b], g.P[a]), a-b) })
	case TieBottomLevel:
		slices.SortFunc(order, func(a, b int) int { return cmp.Or(cmp.Compare(bottom[b], bottom[a]), a-b) })
	}
	return order
}

// identityOrder returns 0..n-1, the TieByID order.
func identityOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// independentOrders derives the scheduling order of every tie-break in
// ties from one sort of the instance by (p desc, id asc). That sort is
// the LPT order, and on independent tasks it is the bottom-level order
// too, since a task's bottom level is its own p. SPT is the same order
// reversed, with every run of equal p flipped back into ID order. The
// sort runs only if some tie-break needs it. The returned slices are
// shared between tie-breaks and never mutated.
func independentOrders(in *model.Instance, ties []TieBreak) (byTie, error) {
	var lpt []int
	lptOrder := func() []int {
		if lpt == nil {
			lpt = identityOrder(in.N())
			slices.SortFunc(lpt, func(a, b int) int { return cmp.Or(cmp.Compare(in.Tasks[b].P, in.Tasks[a].P), a-b) })
		}
		return lpt
	}
	var orders byTie
	for _, tie := range ties {
		if err := checkTie(tie); err != nil {
			return byTie{}, err
		}
		if orders[tie] != nil {
			continue
		}
		switch tie {
		case TieByID:
			orders[tie] = identityOrder(in.N())
		case TieLPT, TieBottomLevel:
			orders[tie] = lptOrder()
		case TieSPT:
			spt := slices.Clone(lptOrder())
			slices.Reverse(spt)
			for lo := 0; lo < len(spt); {
				hi := lo + 1
				for hi < len(spt) && in.Tasks[spt[hi]].P == in.Tasks[spt[lo]].P {
					hi++
				}
				slices.Reverse(spt[lo:hi])
				lo = hi
			}
			orders[tie] = spt
		}
	}
	return orders, nil
}

// rankOf inverts a priority order into per-task ranks.
func rankOf(order []int) []int {
	rank := make([]int, len(order))
	for r, i := range order {
		rank[i] = r
	}
	return rank
}

// rlsRanked is the Algorithm 2 loop with a precomputed tie rank. It
// never mutates rank, so prepared sweeps may run it concurrently
// against a shared rank slice. scr may be nil; only buffers that escape
// into the result are freshly allocated.
//
// Each step costs O(|ready|·log m + m) rather than a scan of every task
// and processor. The ready tasks are kept in an explicit list; since
// ranks are a permutation, the (start, rank) minimum over it does not
// depend on its order. The processors are kept sorted by memory load,
// so the ones a task of size s fits on form a prefix of that order,
// found by binary search (memory sums are assumed not to overflow
// int64, as everywhere in the solvers). A per-step prefix minimum of
// (load, index) over the order then names the least-loaded fitting
// processor, lowest index first on ties.
func rlsRanked(g *dag.Graph, rank []int, cap model.Mem, scr *Scratch) (*RLSResult, error) {
	scr, pooled := borrowScratch(scr)
	defer releaseScratch(scr, pooled)
	n := g.N()
	m := g.M

	sc := model.NewSchedule(m, n)
	copy(sc.P, g.P)
	copy(sc.S, g.S)

	load := zeroed(&scr.load, m)
	memsize := zeroed(&scr.mem, m)
	marked := make([]bool, m)            // escapes via RLSResult.Marked
	readyTime := zeroed(&scr.readyAt, n) // max over preds of completion
	ints := zeroed(&scr.ints, 2*n+2*m)
	pendingPreds := ints[:n]
	// ready lists the unscheduled tasks with no pending predecessor;
	// each task joins it once, so it never outgrows its n slots.
	ready := ints[n : n : 2*n]
	for i := range pendingPreds {
		if pendingPreds[i] = len(g.Preds(i)); pendingPreds[i] == 0 {
			ready = append(ready, i)
		}
	}
	// byMem holds the processors in nondecreasing memory load; argmin[k]
	// is the position in byMem of the least-loaded processor, lowest
	// index on ties, among byMem[:k+1].
	byMem, argmin := ints[2*n:2*n+m], ints[2*n+m:]
	for j := range byMem {
		byMem[j] = j
	}
	var sumCi model.Time

	const inf = model.Time(math.MaxInt64)
	for scheduled := 0; scheduled < n; scheduled++ {
		for k := 1; k < m; k++ {
			b, j := byMem[argmin[k-1]], byMem[k]
			if load[j] < load[b] || (load[j] == load[b] && j < b) {
				argmin[k] = k
			} else {
				argmin[k] = argmin[k-1]
			}
		}
		bestAt, bestPos := -1, -1
		bestStart := inf
		// Lemma 4 marks every processor less loaded than one chosen for
		// some ready task. Loads are fixed within a step, so the union of
		// those marks is every processor below the largest chosen load.
		var markBelow model.Time
		for at, i := range ready {
			lo, hi := 0, m
			for lo < hi {
				mid := (lo + hi) / 2
				if memsize[byMem[mid]]+g.S[i] > cap {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			if lo == 0 {
				// No processor can take this task. Another ready
				// task might still fit; defer i.
				continue
			}
			pos := argmin[lo-1]
			l := load[byMem[pos]]
			markBelow = max(markBelow, l)
			start := max(readyTime[i], l)
			if start < bestStart || (start == bestStart && (bestAt == -1 || rank[i] < rank[ready[bestAt]])) {
				bestAt, bestPos, bestStart = at, pos, start
			}
		}
		if bestAt == -1 {
			return nil, ErrCapTooSmall{Task: slices.Min(ready), Cap: cap}
		}
		for j := range load {
			if load[j] < markBelow {
				marked[j] = true
			}
		}
		i, proc := ready[bestAt], byMem[bestPos]
		ready[bestAt] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		sc.Proc[i] = proc
		sc.Start[i] = bestStart
		c := bestStart + g.P[i]
		load[proc] = c
		memsize[proc] += g.S[i]
		sumCi += c
		// Only proc's memory grew: one insertion step restores the order.
		for k := bestPos; k+1 < m && memsize[byMem[k+1]] < memsize[proc]; k++ {
			byMem[k], byMem[k+1] = byMem[k+1], proc
		}
		for _, w := range g.Succs(i) {
			if c > readyTime[w] {
				readyTime[w] = c
			}
			if pendingPreds[w]--; pendingPreds[w] == 0 {
				ready = append(ready, w)
			}
		}
	}

	// The objectives fall out of the loop's own bookkeeping: the final
	// per-processor loads and memory sizes are exactly what
	// sc.Cmax()/sc.Mmax() would recompute, and ΣCi accumulated per task.
	res := &RLSResult{
		Schedule: sc,
		Cap:      cap,
		Marked:   marked,
		Cmax:     maxTimeOf(load),
		Mmax:     maxMemOf(memsize),
		SumCi:    sumCi,
	}
	return res, nil
}

// RLSIndependent runs the Section 5.2 independent-task variant: tasks
// are taken strictly in the tie-break order (SPT for Corollary 4) and
// each goes to its least-loaded memory-feasible processor. On
// independent tasks this coincides with Algorithm 2 whenever all ready
// times are equal, and it is the form whose ΣCi analysis (Lemma 6)
// requires tasks to be delayed only by order-earlier tasks.
func RLSIndependent(in *model.Instance, delta float64, tie TieBreak) (*RLSResult, error) {
	prep, err := PrepareRLSIndependent(in, tie)
	if err != nil {
		return nil, err
	}
	return prep.Run(delta, tie)
}

// RLSIndependentWithCap is the explicit-cap form of RLSIndependent.
func RLSIndependentWithCap(in *model.Instance, cap model.Mem, tie TieBreak) (*RLSResult, error) {
	prep, err := PrepareRLSIndependent(in, tie)
	if err != nil {
		return nil, err
	}
	return prep.RunWithCap(cap, tie)
}

// rlsIndependentOrdered is the Section 5.2 loop with a precomputed
// scheduling order. It never mutates order, so prepared sweeps may run
// it concurrently against a shared order slice. scr may be nil; only
// buffers that escape into the result are freshly allocated.
func rlsIndependentOrdered(in *model.Instance, order []int, cap model.Mem, scr *Scratch) (*RLSResult, error) {
	scr, pooled := borrowScratch(scr)
	defer releaseScratch(scr, pooled)
	n, m := in.N(), in.M
	sc := model.NewSchedule(m, n)
	for i, t := range in.Tasks {
		sc.P[i] = t.P
		sc.S[i] = t.S
	}
	load := zeroed(&scr.load, m)
	memsize := zeroed(&scr.mem, m)
	marked := make([]bool, m) // escapes via RLSResult.Marked
	var sumCi model.Time
	for _, i := range order {
		t := in.Tasks[i]
		proc := -1
		for j := 0; j < m; j++ {
			if memsize[j]+t.S > cap {
				continue
			}
			if proc == -1 || load[j] < load[proc] {
				proc = j
			}
		}
		if proc == -1 {
			return nil, ErrCapTooSmall{Task: i, Cap: cap}
		}
		for j := 0; j < m; j++ {
			if load[j] < load[proc] {
				marked[j] = true
			}
		}
		sc.Proc[i] = proc
		sc.Start[i] = load[proc]
		load[proc] += t.P
		memsize[proc] += t.S
		sumCi += load[proc]
	}
	return &RLSResult{
		Schedule: sc,
		Cap:      cap,
		Marked:   marked,
		Cmax:     maxTimeOf(load),
		Mmax:     maxMemOf(memsize),
		SumCi:    sumCi,
	}, nil
}

// RLSPrepared memoizes the δ-independent work of RLSIndependent —
// instance validation, the Graham memory lower bound, and the
// tie-break orders — so a δ-sweep pays each exactly once per instance.
// The prepared value is immutable after PrepareRLSIndependent and safe
// for concurrent Run calls.
type RLSPrepared struct {
	in     *model.Instance
	lb     model.Mem
	orders byTie
}

// PrepareRLSIndependent validates the instance and precomputes the
// scheduling orders for the given tie-breaks (all four when none are
// given).
func PrepareRLSIndependent(in *model.Instance, ties ...TieBreak) (*RLSPrepared, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if len(ties) == 0 {
		ties = []TieBreak{TieByID, TieSPT, TieLPT, TieBottomLevel}
	}
	orders, err := independentOrders(in, ties)
	if err != nil {
		return nil, err
	}
	return &RLSPrepared{in: in, lb: bounds.MemLB(in.S(), in.M), orders: orders}, nil
}

// LB returns the memoized Graham memory lower bound.
func (prep *RLSPrepared) LB() model.Mem { return prep.lb }

// Run executes one RLS∆ evaluation against the prepared state.
func (prep *RLSPrepared) Run(delta float64, tie TieBreak) (*RLSResult, error) {
	return prep.RunScratch(delta, tie, nil)
}

// RunScratch is Run with caller-owned scratch buffers: the sweep
// engine's workers hold one Scratch each, so a warm sweep allocates
// only what escapes into the result. A nil scr borrows from the
// internal pool.
func (prep *RLSPrepared) RunScratch(delta float64, tie TieBreak, scr *Scratch) (*RLSResult, error) {
	cap, err := deltaCap(delta, prep.lb)
	if err != nil {
		return nil, err
	}
	res, err := prep.runOrdered(tie, cap, scr)
	if err != nil {
		return nil, err
	}
	res.Delta = delta
	return res, nil
}

// RunWithCap executes one evaluation under an explicit per-processor
// budget against the prepared state.
func (prep *RLSPrepared) RunWithCap(cap model.Mem, tie TieBreak) (*RLSResult, error) {
	res, err := prep.runOrdered(tie, cap, nil)
	if err != nil {
		return nil, err
	}
	if prep.lb > 0 {
		res.Delta = float64(cap) / float64(prep.lb)
	}
	return res, nil
}

func (prep *RLSPrepared) runOrdered(tie TieBreak, cap model.Mem, scr *Scratch) (*RLSResult, error) {
	order, err := prep.orders.get(tie)
	if err != nil {
		return nil, err
	}
	res, err := rlsIndependentOrdered(prep.in, order, cap, scr)
	if err != nil {
		return nil, err
	}
	res.LB = prep.lb
	return res, nil
}

// RLSGraphPrepared memoizes the δ-independent work of RLS on a task
// DAG — validation (including the topological cycle check), the Graham
// memory lower bound, the bottom levels and the tie-break ranks — so a
// δ-sweep pays each exactly once per graph. The prepared value is
// immutable after PrepareRLS and safe for concurrent Run calls.
type RLSGraphPrepared struct {
	g      *dag.Graph
	lb     model.Mem
	bottom []model.Time
	ranks  byTie
}

// PrepareRLS validates the graph and precomputes the tie ranks for the
// given tie-breaks (all four when none are given). Validation sorts the
// graph topologically to rule out cycles, and the bottom levels, needed
// only for TieBottomLevel, run a second topological sort of their own.
func PrepareRLS(g *dag.Graph, ties ...TieBreak) (*RLSGraphPrepared, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if len(ties) == 0 {
		ties = []TieBreak{TieByID, TieSPT, TieLPT, TieBottomLevel}
	}
	prep := &RLSGraphPrepared{
		g:  g,
		lb: bounds.MemLB(g.S, g.M),
	}
	for _, tie := range ties {
		if err := checkTie(tie); err != nil {
			return nil, err
		}
		if prep.ranks[tie] != nil {
			continue
		}
		if tie == TieBottomLevel && prep.bottom == nil {
			bl, err := g.BottomLevels()
			if err != nil {
				return nil, err
			}
			prep.bottom = bl
		}
		prep.ranks[tie] = rankOf(tieOrderFrom(g, tie, prep.bottom))
	}
	return prep, nil
}

// LB returns the memoized Graham memory lower bound.
func (prep *RLSGraphPrepared) LB() model.Mem { return prep.lb }

// Run executes one RLS∆ evaluation against the prepared state.
func (prep *RLSGraphPrepared) Run(delta float64, tie TieBreak) (*RLSResult, error) {
	return prep.RunScratch(delta, tie, nil)
}

// RunScratch is Run with caller-owned scratch buffers; a nil scr
// borrows from the internal pool.
func (prep *RLSGraphPrepared) RunScratch(delta float64, tie TieBreak, scr *Scratch) (*RLSResult, error) {
	cap, err := deltaCap(delta, prep.lb)
	if err != nil {
		return nil, err
	}
	res, err := prep.runRanked(tie, cap, scr)
	if err != nil {
		return nil, err
	}
	res.Delta = delta
	return res, nil
}

// RunWithCap executes one evaluation under an explicit per-processor
// budget against the prepared state.
func (prep *RLSGraphPrepared) RunWithCap(cap model.Mem, tie TieBreak) (*RLSResult, error) {
	res, err := prep.runRanked(tie, cap, nil)
	if err != nil {
		return nil, err
	}
	if prep.lb > 0 {
		res.Delta = float64(cap) / float64(prep.lb)
	}
	return res, nil
}

func (prep *RLSGraphPrepared) runRanked(tie TieBreak, cap model.Mem, scr *Scratch) (*RLSResult, error) {
	rank, err := prep.ranks.get(tie)
	if err != nil {
		return nil, err
	}
	res, err := rlsRanked(prep.g, rank, cap, scr)
	if err != nil {
		return nil, err
	}
	res.LB = prep.lb
	return res, nil
}
