// Package bounds computes the lower bounds that drive every guarantee
// in the paper:
//
//   - the Graham memory lower bound LB = max(max_i s_i, Σ_i s_i / m)
//     used by RLS∆ (Algorithm 2) to cap per-processor memory at ∆·LB,
//   - the matching makespan lower bounds max(max_i p_i, Σ_i p_i / m)
//     for independent tasks, plus the critical path for DAGs (the two
//     "basic lower bounds" Graham's List Scheduling argument sums),
//   - the ideal-SPT lower bound on ΣCi.
//
// All divisions round up (a lower bound on an integer optimum may be
// taken as the ceiling).
package bounds

import (
	"slices"

	"storagesched/internal/dag"
	"storagesched/internal/model"
)

// ceilDiv returns ceil(a/b) for a >= 0, b > 0.
func ceilDiv(a int64, b int64) int64 {
	return (a + b - 1) / b
}

// MemLB returns the Graham lower bound on M*max for sizes s on m
// processors: max(max_i s_i, ceil(Σ s_i / m)). This is the LB computed
// at the top of Algorithm 2.
func MemLB(s []model.Mem, m int) model.Mem {
	var mx, sum model.Mem
	for _, x := range s {
		if x > mx {
			mx = x
		}
		sum += x
	}
	if avg := ceilDiv(sum, int64(m)); avg > mx {
		return avg
	}
	return mx
}

// Record collects every lower bound for one instance, so experiment
// tables can report ratios against the exact quantities the proofs use.
type Record struct {
	M int

	// Makespan bounds.
	WorkOverM    model.Time // ceil(Σ p_i / m)
	MaxP         model.Time // max_i p_i
	CriticalPath model.Time // longest chain (equals MaxP when edgeless)
	CmaxLB       model.Time // max of the above

	// Memory bounds.
	MemOverM model.Mem // ceil(Σ s_i / m)
	MaxS     model.Mem // max_i s_i
	MmaxLB   model.Mem // max of the above (the paper's LB)

	// ΣCi bound: SPT on m processors is optimal for P||ΣCi, so the
	// value of an SPT list schedule is itself the optimum; we record
	// it as a bound usable by Corollary 4 measurements.
	SumCiLB model.Time
}

// ForInstance computes the record for an independent-task instance.
func ForInstance(in *model.Instance) Record {
	r := Record{M: in.M}
	r.MaxP = in.MaxP()
	r.WorkOverM = ceilDiv(in.TotalWork(), int64(in.M))
	r.CriticalPath = r.MaxP
	r.CmaxLB = max(r.MaxP, r.WorkOverM)
	r.MaxS = in.MaxS()
	r.MemOverM = ceilDiv(in.TotalMem(), int64(in.M))
	r.MmaxLB = max(r.MaxS, r.MemOverM)
	r.SumCiLB = SumCiSPT(in.P(), in.M)
	return r
}

// ForGraph computes the record for a DAG instance; the critical path
// joins the makespan bounds.
func ForGraph(g *dag.Graph) (Record, error) {
	r := Record{M: g.M}
	cp, err := g.CriticalPath()
	if err != nil {
		return r, err
	}
	var maxP model.Time
	for _, p := range g.P {
		if p > maxP {
			maxP = p
		}
	}
	r.MaxP = maxP
	r.WorkOverM = ceilDiv(g.TotalWork(), int64(g.M))
	r.CriticalPath = cp
	r.CmaxLB = max(r.MaxP, r.WorkOverM, cp)
	r.MaxS = g.MaxS()
	r.MemOverM = ceilDiv(g.TotalMem(), int64(g.M))
	r.MmaxLB = max(r.MaxS, r.MemOverM)
	r.SumCiLB = SumCiSPT(g.P, g.M)
	return r, nil
}

// SumCiSPT returns the value of the SPT list schedule of p on m
// processors. SPT list scheduling is optimal for P||ΣCi (Conway et al.;
// recalled in Section 5.2), so this is the exact optimum on independent
// tasks and a lower bound with precedence constraints.
func SumCiSPT(p []model.Time, m int) model.Time {
	sorted := slices.Clone(p)
	slices.Sort(sorted)
	loads := make([]model.Time, m)
	var total model.Time
	for _, x := range sorted {
		q := argminT(loads)
		loads[q] += x
		total += loads[q]
	}
	return total
}

func argminT(xs []model.Time) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}
