package bounds

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"storagesched/internal/dag"
	"storagesched/internal/model"
)

func TestMemLB(t *testing.T) {
	// max_i s_i dominates: one huge item.
	if got := MemLB([]model.Mem{10, 1, 1}, 4); got != 10 {
		t.Errorf("MemLB = %d, want 10", got)
	}
	// average dominates: many equal items.
	if got := MemLB([]model.Mem{3, 3, 3, 3}, 2); got != 6 {
		t.Errorf("MemLB = %d, want 6", got)
	}
	// ceiling: sum 7 over 2 -> 4.
	if got := MemLB([]model.Mem{3, 3, 1}, 2); got != 4 {
		t.Errorf("MemLB = %d, want 4 (ceil 7/2)", got)
	}
	if got := MemLB(nil, 3); got != 0 {
		t.Errorf("MemLB(empty) = %d, want 0", got)
	}
}

func TestForInstance(t *testing.T) {
	in := model.NewInstance(2, []model.Time{4, 2, 7}, []model.Mem{1, 5, 3})
	r := ForInstance(in)
	if r.MaxP != 7 || r.WorkOverM != 7 || r.CmaxLB != 7 {
		t.Errorf("makespan bounds wrong: %+v", r)
	}
	if r.MaxS != 5 || r.MemOverM != 5 || r.MmaxLB != 5 {
		t.Errorf("memory bounds wrong: %+v", r)
	}
	// SPT on 2 procs of {2,4,7}: loads (2),(4) -> then 7 on proc0:
	// completions 2, 4, 9 -> ΣCi = 15.
	if r.SumCiLB != 15 {
		t.Errorf("SumCiLB = %d, want 15", r.SumCiLB)
	}
}

func TestForGraph(t *testing.T) {
	g := dag.New(2, []model.Time{1, 2, 3, 1}, []model.Mem{1, 1, 1, 1})
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	r, err := ForGraph(g)
	if err != nil {
		t.Fatalf("ForGraph: %v", err)
	}
	if r.CriticalPath != 5 {
		t.Errorf("CriticalPath = %d, want 5", r.CriticalPath)
	}
	if r.CmaxLB != 5 { // cp 5 > work/m 4 > maxp 3
		t.Errorf("CmaxLB = %d, want 5", r.CmaxLB)
	}
	if r.MmaxLB != 2 { // ceil(4/2)
		t.Errorf("MmaxLB = %d, want 2", r.MmaxLB)
	}
}

func TestSumCiSPTMatchesBruteForceTinyCases(t *testing.T) {
	// SPT is optimal for P||ΣCi; verify against exhaustive search over
	// assignments and orders on tiny instances.
	cases := [][]model.Time{
		{3},
		{1, 2},
		{5, 1, 3},
		{2, 2, 2, 2},
		{9, 1, 1, 1, 4},
	}
	for _, p := range cases {
		for m := 1; m <= 3; m++ {
			want := bruteForceSumCi(p, m)
			if got := SumCiSPT(p, m); got != want {
				t.Errorf("SumCiSPT(%v, m=%d) = %d, want %d", p, m, got, want)
			}
		}
	}
}

// bruteForceSumCi enumerates all assignments; within a processor SPT
// order is optimal, so only assignments need enumeration.
func bruteForceSumCi(p []model.Time, m int) model.Time {
	n := len(p)
	assign := make([]int, n)
	best := model.Time(1) << 62
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			perProc := make([][]model.Time, m)
			for j, q := range assign {
				perProc[q] = append(perProc[q], p[j])
			}
			var total model.Time
			for _, ps := range perProc {
				sort.Slice(ps, func(a, b int) bool { return ps[a] < ps[b] })
				var clock model.Time
				for _, x := range ps {
					clock += x
					total += clock
				}
			}
			if total < best {
				best = total
			}
			return
		}
		for q := 0; q < m; q++ {
			assign[i] = q
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

func TestPropertyLBsAreLowerBounds(t *testing.T) {
	// For any assignment, achieved objectives dominate the bounds.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		m := 1 + rng.Intn(6)
		p := make([]model.Time, n)
		s := make([]model.Mem, n)
		a := make(model.Assignment, n)
		for i := 0; i < n; i++ {
			p[i] = model.Time(1 + rng.Intn(50))
			s[i] = model.Mem(rng.Intn(50))
			a[i] = rng.Intn(m)
		}
		in := model.NewInstance(m, p, s)
		r := ForInstance(in)
		return in.Cmax(a) >= r.CmaxLB &&
			in.Mmax(a) >= r.MmaxLB &&
			in.SumCi(a) >= r.SumCiLB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyGraphBoundsDominatedByListSchedule(t *testing.T) {
	// Critical path and work/m never exceed the Cmax of a greedy
	// sequential schedule (everything on one processor).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		p := make([]model.Time, n)
		s := make([]model.Mem, n)
		for i := range p {
			p[i] = model.Time(1 + rng.Intn(20))
			s[i] = model.Mem(rng.Intn(20))
		}
		g := dag.New(1+rng.Intn(4), p, s)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.2 {
					g.AddEdge(u, v)
				}
			}
		}
		r, err := ForGraph(g)
		if err != nil {
			return false
		}
		return r.CmaxLB <= g.TotalWork()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
