package core

// Differential tests of the Algorithm 2 kernel against the original
// O(n²·m) loop, which scans every task and, for each ready one, every
// processor twice at each step. The reference below is that loop kept
// as it was, with its scratch buffers replaced by plain allocations.

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"storagesched/internal/bounds"
	"storagesched/internal/dag"
	"storagesched/internal/gen"
	"storagesched/internal/model"
)

// rlsRankedReference is the original Algorithm 2 loop.
func rlsRankedReference(g *dag.Graph, rank []int, cap model.Mem) (*RLSResult, error) {
	n := g.N()
	m := g.M

	sc := model.NewSchedule(m, n)
	copy(sc.P, g.P)
	copy(sc.S, g.S)

	load := make([]model.Time, m)
	memsize := make([]model.Mem, m)
	marked := make([]bool, m)
	done := make([]bool, n)
	pendingPreds := make([]int, n)
	for v := range pendingPreds {
		pendingPreds[v] = len(g.Preds(v))
	}
	readyTime := make([]model.Time, n) // max over preds of completion
	var sumCi model.Time

	const inf = model.Time(math.MaxInt64)
	for scheduled := 0; scheduled < n; scheduled++ {
		bestTask, bestProc := -1, -1
		bestStart := inf
		for i := 0; i < n; i++ {
			if done[i] || pendingPreds[i] != 0 {
				continue
			}
			// Least-loaded processor that respects the memory cap.
			proc := -1
			for j := 0; j < m; j++ {
				if memsize[j]+g.S[i] > cap {
					continue
				}
				if proc == -1 || load[j] < load[proc] {
					proc = j
				}
			}
			if proc == -1 {
				// No processor can take this task. Another ready
				// task might still fit; defer i.
				continue
			}
			// Analysis bookkeeping (Lemma 4): every processor with a
			// smaller load than the chosen one was skipped because
			// of memory.
			for j := 0; j < m; j++ {
				if load[j] < load[proc] {
					marked[j] = true
				}
			}
			start := readyTime[i]
			if load[proc] > start {
				start = load[proc]
			}
			if start < bestStart || (start == bestStart && (bestTask == -1 || rank[i] < rank[bestTask])) {
				bestTask, bestProc, bestStart = i, proc, start
			}
		}
		if bestTask == -1 {
			return nil, ErrCapTooSmall{Task: firstUnscheduled(done), Cap: cap}
		}
		i := bestTask
		sc.Proc[i] = bestProc
		sc.Start[i] = bestStart
		load[bestProc] = bestStart + g.P[i]
		memsize[bestProc] += g.S[i]
		sumCi += bestStart + g.P[i]
		done[i] = true
		for _, w := range g.Succs(i) {
			pendingPreds[w]--
			if c := bestStart + g.P[i]; c > readyTime[w] {
				readyTime[w] = c
			}
		}
	}

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

func firstUnscheduled(done []bool) int {
	for i, d := range done {
		if !d {
			return i
		}
	}
	return -1
}

var allTies = []TieBreak{TieByID, TieSPT, TieLPT, TieBottomLevel}

// checkKernelMatchesReference runs the kernel and the reference on one
// (graph, cap, tie) and fails on any difference. The one allowed
// difference is ErrCapTooSmall.Task: the reference names the lowest
// unscheduled task, which may still be waiting on a predecessor, while
// the kernel names the lowest ready task — never a lower index, and the
// same one when there are no arcs. It reports whether the run was
// feasible.
func checkKernelMatchesReference(t *testing.T, g *dag.Graph, cap model.Mem, tie TieBreak, scr *Scratch) bool {
	t.Helper()
	prep, err := PrepareRLS(g, tie)
	if err != nil {
		t.Fatal(err)
	}
	rank := prep.ranks[tie]
	got, gotErr := rlsRanked(g, rank, cap, scr)
	want, wantErr := rlsRankedReference(g, rank, cap)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("n=%d m=%d cap=%d %s: kernel err %v, reference err %v", g.N(), g.M, cap, tie, gotErr, wantErr)
	}
	if wantErr != nil {
		var ge, we ErrCapTooSmall
		if !errors.As(gotErr, &ge) || !errors.As(wantErr, &we) {
			t.Fatalf("n=%d m=%d cap=%d %s: errors %v / %v, want ErrCapTooSmall", g.N(), g.M, cap, tie, gotErr, wantErr)
		}
		if ge.Cap != we.Cap || ge.Task < we.Task || ge.Task >= g.N() || (g.NumEdges() == 0 && ge != we) {
			t.Fatalf("n=%d m=%d cap=%d %s: kernel %+v, reference %+v", g.N(), g.M, cap, tie, ge, we)
		}
		return false
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("n=%d m=%d cap=%d %s: kernel result differs from reference:\nkernel    %+v\nreference %+v",
			g.N(), g.M, cap, tie, got, want)
	}
	return true
}

// tiedGraph draws p and s from {1, 2} and arcs with probability prob,
// so almost every step has many tasks and processors tied on start
// time, load and memory.
func tiedGraph(m, n int, prob float64, seed int64) *dag.Graph {
	g := gen.ErdosRenyiDAG(m, n, prob, seed)
	for i := range g.P {
		g.P[i] = 1 + g.P[i]%2
		g.S[i] = 1 + g.S[i]%2
	}
	return g
}

func TestRLSKernelMatchesReference(t *testing.T) {
	var graphs []*dag.Graph
	for seed := int64(1); seed <= 3; seed++ {
		for _, m := range []int{1, 2, 3, 5, 8, 16} {
			graphs = append(graphs,
				gen.LayeredDAG(m, 6, 4, seed),
				gen.ErdosRenyiDAG(m, 30, 0.1, seed),
				gen.ForkJoin(m, 3, 5, seed),
				dag.FromInstance(gen.Uniform(25, m, seed)),
				dag.FromInstance(gen.EmbeddedCode(25, m, seed)),
				tiedGraph(m, 30, 0.05, seed),
				tiedGraph(m, 30, 0, seed),
			)
		}
	}
	scr := NewScratch()
	runs, feasible := 0, 0
	for _, g := range graphs {
		lb := bounds.MemLB(g.S, g.M)
		for _, cap := range []model.Mem{0, lb / 2, lb, lb + 1, lb + lb/2, 2 * lb, 3 * lb, 1 << 40} {
			for _, tie := range allTies {
				// Alternate a reused scratch with a pooled one, so
				// stale buffer contents would show up as a mismatch.
				s := scr
				if runs%2 == 1 {
					s = nil
				}
				if checkKernelMatchesReference(t, g, cap, tie, s) {
					feasible++
				}
				runs++
			}
		}
	}
	t.Logf("%d graphs, %d runs, %d feasible", len(graphs), runs, feasible)
}

// TestRLSCapTooSmallNamesReadyTask pins the task ErrCapTooSmall
// reports: the lowest-index ready task, all of which fit nowhere.
func TestRLSCapTooSmallNamesReadyTask(t *testing.T) {
	// Task 0 (s=1) waits on task 1 (s=10), and it is task 1 that fits
	// on no processor under cap 5.
	g := dag.New(2, []model.Time{1, 1}, []model.Mem{1, 10})
	g.AddEdge(1, 0)
	// Task 0 fits, and scheduling it leaves the ready list out of
	// index order; tasks 1–3 then fit nowhere.
	free := dag.New(1, []model.Time{1, 1, 1, 1}, []model.Mem{0, 5, 5, 5})
	for _, tc := range []struct {
		g    *dag.Graph
		want ErrCapTooSmall
	}{
		{g, ErrCapTooSmall{Task: 1, Cap: 5}},
		{free, ErrCapTooSmall{Task: 1, Cap: 4}},
	} {
		_, err := RLSWithCap(tc.g, tc.want.Cap, TieByID)
		var e ErrCapTooSmall
		if !errors.As(err, &e) || e != tc.want {
			t.Errorf("RLSWithCap(cap %d) = %v, want task %d", tc.want.Cap, err, tc.want.Task)
		}
	}
}

// FuzzRLSGraph builds a small DAG from the fuzz input — n ≤ 24 tasks,
// m ≤ 6 processors, forward arcs only and a cap from the bytes — and
// checks the kernel against the reference loop under one tie-break.
func FuzzRLSGraph(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 2, 0, 20, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 0, 3, 1, 4, 2, 5})
	f.Add([]byte{23, 5, 3, 40, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Add([]byte{11, 3, 1, 16, 255, 128, 64, 32, 16, 8, 4, 2, 1, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6})
	f.Add([]byte{5, 1, 2, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 2, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := 1 + next()%24
		m := 1 + next()%6
		tie := allTies[next()%len(allTies)]
		// Total memory is at most 24·7; caps run from −16 to 239.
		cap := model.Mem(next() - 16)
		p := make([]model.Time, n)
		s := make([]model.Mem, n)
		for i := range p {
			b := next()
			p[i] = model.Time(1 + b%8)
			s[i] = model.Mem(b / 8 % 8)
		}
		g := dag.New(m, p, s)
		for len(data) >= 2 {
			u, v := next()%n, next()%n
			if u > v {
				u, v = v, u
			}
			if u != v {
				g.AddEdge(u, v)
			}
		}
		checkKernelMatchesReference(t, g, cap, tie, nil)
	})
}
