// Package core implements the two algorithm families of Saule, Dutot
// and Mounié, "Scheduling with Storage Constraints" (IPDPS 2008):
//
//   - SBO∆ — the Symmetric Bi-Objective algorithm for independent tasks
//     (Algorithm 1, Section 3), a ((1+∆)ρ1, (1+1/∆)ρ2)-approximation of
//     (Cmax, Mmax) built from any two single-objective sub-algorithms;
//   - RLS∆ — Restricted List Scheduling for precedence-constrained
//     tasks (Algorithm 2, Section 5), a
//     (2 + 1/(∆−2) − (∆−1)/(m(∆−2)), ∆)-approximation for ∆ > 2, and
//     its tri-objective SPT variant (Corollary 4);
//   - the Section 7 constrained solvers that recover the original
//     "minimize Cmax subject to Mmax ≤ M" problem from the bi-objective
//     machinery.
package core

import (
	"fmt"

	"storagesched/internal/exact"
	"storagesched/internal/makespan"
	"storagesched/internal/model"
)

// SBOResult is the outcome of one SBO∆ run, retaining everything the
// analysis of Properties 1 and 2 refers to.
type SBOResult struct {
	Delta float64

	// Assignment is the combined schedule π∆.
	Assignment model.Assignment

	// FromMemSchedule[i] is true when task i was taken from π2, the
	// memory-optimized schedule (the set S2 in the proof of
	// Property 1), false when taken from π1 (the set S1).
	FromMemSchedule []bool

	// C is Cmax(π1), the guaranteed makespan of the time
	// sub-schedule; M is Mmax(π2), the guaranteed memory of the
	// memory sub-schedule. The proven bounds are relative to these:
	// Cmax(π∆) ≤ (1+∆)·C and Mmax(π∆) ≤ (1+1/∆)·M.
	C model.Time
	M model.Mem

	// Cmax and Mmax are the achieved objective values of π∆.
	Cmax model.Time
	Mmax model.Mem
}

// CmaxBound returns the Property 1 guarantee (1+∆)·C as a float.
func (r *SBOResult) CmaxBound() float64 { return (1 + r.Delta) * float64(r.C) }

// MmaxBound returns the Property 2 guarantee (1+1/∆)·M as a float.
func (r *SBOResult) MmaxBound() float64 { return (1 + 1/r.Delta) * float64(r.M) }

// SBO runs Algorithm 1 on an independent-task instance. algC is the
// ρ1-approximation used for the makespan schedule π1, algM the
// ρ2-approximation used (on the s vector) for the memory schedule π2.
// Delta must be > 0.
//
// The threshold test "p_i/C < ∆·s_i/M" is evaluated exactly with
// rational arithmetic so that huge integer instances (the ε-scaled
// hardness instances use values up to 2^40) never suffer float
// rounding.
func SBO(in *model.Instance, delta float64, algC, algM makespan.Algorithm) (*SBOResult, error) {
	prep, err := PrepareSBO(in, algC, algM)
	if err != nil {
		return nil, err
	}
	return prep.Run(delta)
}

// SBOPrepared holds the δ-independent half of Algorithm 1: the two
// single-objective sub-schedules π1 and π2 and their objective values C
// and M. Only the merge (the threshold test per task) depends on ∆, so
// a δ-sweep prepares once and runs the merge per grid point — the
// sub-algorithm cost (the dominant cost with LPT, and overwhelmingly so
// with the PTAS) is paid once per instance instead of once per run.
// The prepared value is immutable after PrepareSBO and safe for
// concurrent Run calls.
type SBOPrepared struct {
	in       *model.Instance
	p        []model.Time
	s        []model.Mem
	pi1, pi2 model.Assignment
	c        model.Time
	m        model.Mem
}

// PrepareSBO validates the instance and runs the two sub-algorithms.
func PrepareSBO(in *model.Instance, algC, algM makespan.Algorithm) (*SBOPrepared, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	p := in.P()
	s := in.S()
	pi1 := algC.Assign(p, in.M)
	pi2 := algM.Assign(s, in.M)
	return &SBOPrepared{
		in:  in,
		p:   p,
		s:   s,
		pi1: pi1,
		pi2: pi2,
		c:   in.Cmax(pi1),
		m:   in.Mmax(pi2),
	}, nil
}

// C returns Cmax(π1), the makespan of the time sub-schedule.
func (prep *SBOPrepared) C() model.Time { return prep.c }

// M returns Mmax(π2), the memory of the memory sub-schedule.
func (prep *SBOPrepared) M() model.Mem { return prep.m }

// Run performs the ∆-dependent merge of Algorithm 1.
func (prep *SBOPrepared) Run(delta float64) (*SBOResult, error) {
	return prep.RunScratch(delta, nil)
}

// RunScratch is Run with caller-owned scratch buffers for the
// objective evaluation: the sweep engine's workers hold one Scratch
// each, so a warm sweep allocates only the result itself. A nil scr
// borrows from the internal pool.
func (prep *SBOPrepared) RunScratch(delta float64, scr *Scratch) (*SBOResult, error) {
	if delta <= 0 {
		return nil, fmt.Errorf("core: SBO delta = %g, need delta > 0", delta)
	}
	// co holds ∆'s exact mantissa/exponent form; every finite float64
	// is a rational, and non-finite ∆ (NaN passes the sign check) has
	// no rational form at all.
	co, err := exact.NewCoeff(delta)
	if err != nil {
		return nil, fmt.Errorf("core: SBO delta = %g is not finite", delta)
	}
	in := prep.in
	res := &SBOResult{
		Delta:           delta,
		Assignment:      make(model.Assignment, in.N()),
		FromMemSchedule: make([]bool, in.N()),
		C:               prep.c,
		M:               prep.m,
	}

	for i := range in.Tasks {
		useMem := false
		if prep.m == 0 {
			// Perfect memory schedule exists (all s_i = 0); memory
			// needs no help, keep every task on the time schedule.
			useMem = false
		} else {
			// p_i/C < ∆·s_i/M  ⇔  p_i·M < ∆·s_i·C (C, M > 0),
			// evaluated on the exact integer kernel so huge instances
			// (ε-scaled hardness values reach 2^40) never suffer float
			// rounding — and the per-task big.Rat allocations are gone.
			useMem = co.MulCmp(prep.p[i], int64(prep.m), int64(prep.s[i]), prep.c) < 0
		}
		if useMem {
			res.Assignment[i] = prep.pi2[i]
		} else {
			res.Assignment[i] = prep.pi1[i]
		}
		res.FromMemSchedule[i] = useMem
	}
	res.Cmax, res.Mmax = evalAssignment(in, res.Assignment, scr)
	return res, nil
}

// evalAssignment computes (Cmax, Mmax) of an assignment in one pass
// over the tasks, against scratch-backed per-processor accumulators —
// equivalent to in.Cmax(a) and in.Mmax(a) without their allocations.
func evalAssignment(in *model.Instance, a model.Assignment, scr *Scratch) (model.Time, model.Mem) {
	scr, pooled := borrowScratch(scr)
	defer releaseScratch(scr, pooled)
	loads := zeroed(&scr.load, in.M)
	mems := zeroed(&scr.mem, in.M)
	for i, t := range in.Tasks {
		loads[a[i]] += t.P
		mems[a[i]] += t.S
	}
	return maxTimeOf(loads), maxMemOf(mems)
}

// SBOWithLS runs SBO∆ with Graham list scheduling on both objectives —
// the cheapest configuration, ratio ((1+∆)(2−1/m), (1+1/∆)(2−1/m)).
func SBOWithLS(in *model.Instance, delta float64) (*SBOResult, error) {
	return SBO(in, delta, makespan.ListScheduling{}, makespan.ListScheduling{})
}

// SBOWithLPT runs SBO∆ with LPT on both objectives, ratio
// ((1+∆)(4/3−1/3m), (1+1/∆)(4/3−1/3m)).
func SBOWithLPT(in *model.Instance, delta float64) (*SBOResult, error) {
	return SBO(in, delta, makespan.LPT{}, makespan.LPT{})
}

// SBOWithPTAS runs SBO∆ with the Hochbaum–Shmoys PTAS on both
// objectives — the Corollary 1 configuration with ratio
// ((1+∆)(1+ε), (1+1/∆)(1+ε)) ≤ (1+∆+ε', 1+1/∆+ε'). The PTAS dynamic
// program is exponential in 1/ε; see makespan.PTAS.
func SBOWithPTAS(in *model.Instance, delta, eps float64) (*SBOResult, error) {
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("core: SBO PTAS eps = %g, need 0 < eps < 1", eps)
	}
	alg := makespan.PTAS{Epsilon: eps}
	return SBO(in, delta, alg, alg)
}

// SBORatio returns the proven approximation pair of SBO∆ given the
// sub-algorithm ratios: ((1+∆)·ρ1, (1+1/∆)·ρ2).
func SBORatio(delta, rho1, rho2 float64) (cmaxRatio, mmaxRatio float64) {
	return (1 + delta) * rho1, (1 + 1/delta) * rho2
}
