package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"storagesched/internal/core"
	"storagesched/internal/gen"
	"storagesched/internal/model"
	"storagesched/internal/pareto"
)

// mustGrid unwraps a grid constructor in tests, where the inputs are
// known-valid.
func mustGrid(g []float64, err error) []float64 {
	if err != nil {
		panic(err)
	}
	return g
}

func testGrid() []float64 { return mustGrid(GeometricGrid(0.25, 8, 16)) }

func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	in := gen.Uniform(120, 8, 7)
	var base *Result
	for _, workers := range []int{1, 2, 3, 8, 32} {
		res, err := Sweep(context.Background(), in, Config{Deltas: testGrid(), Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if base == nil {
			base = res
			continue
		}
		if len(res.Runs) != len(base.Runs) {
			t.Fatalf("workers=%d: %d runs, want %d", workers, len(res.Runs), len(base.Runs))
		}
		for i := range res.Runs {
			got, want := res.Runs[i], base.Runs[i]
			if got.Algorithm != want.Algorithm || got.Tie != want.Tie || got.Delta != want.Delta {
				t.Fatalf("workers=%d run %d: job (%v,%v,%g), want (%v,%v,%g)",
					workers, i, got.Algorithm, got.Tie, got.Delta, want.Algorithm, want.Tie, want.Delta)
			}
			if got.Value != want.Value {
				t.Fatalf("workers=%d run %d (%s): value %v, want %v",
					workers, i, got.Label(), got.Value, want.Value)
			}
			if !reflect.DeepEqual(got.Assignment, want.Assignment) {
				t.Fatalf("workers=%d run %d (%s): assignment differs", workers, i, got.Label())
			}
		}
		if !reflect.DeepEqual(res.Front, base.Front) {
			t.Fatalf("workers=%d: front %v, want %v", workers, res.Front, base.Front)
		}
	}
	if len(base.Front) == 0 {
		t.Fatal("empty front")
	}
}

func TestSweepFrontIsNonDominatedAndSorted(t *testing.T) {
	in := gen.EmbeddedCode(150, 8, 3)
	res, err := Sweep(context.Background(), in, Config{Deltas: testGrid()})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Front {
		if i > 0 {
			prev := res.Front[i-1].Value
			if p.Value.Cmax <= prev.Cmax || p.Value.Mmax >= prev.Mmax {
				t.Errorf("front not strictly improving at %d: %v then %v", i, prev, p.Value)
			}
		}
		run := res.Runs[p.RunIndex]
		if run.Err != nil || run.Value != p.Value {
			t.Errorf("front point %d: witness run %d does not achieve %v", i, p.RunIndex, p.Value)
		}
		if err := in.ValidateAssignment(run.Assignment); err != nil {
			t.Errorf("front point %d: invalid witness assignment: %v", i, err)
		}
		if got := in.Eval(run.Assignment); got != p.Value {
			t.Errorf("front point %d: assignment evaluates to %v, want %v", i, got, p.Value)
		}
	}
}

// TestSweepAgreesWithExactFront checks the swept front never claims a
// point below the true Pareto front on instances small enough to
// enumerate, and that every swept value is genuinely achievable.
func TestSweepAgreesWithExactFront(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		in := gen.Uniform(10, 3, seed)
		exact, err := pareto.Front(in)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Sweep(context.Background(), in, Config{Deltas: mustGrid(GeometricGrid(0.125, 16, 32))})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Front {
			covered := false
			for _, q := range exact {
				if q.Value.WeaklyDominates(p.Value) {
					covered = true
					break
				}
			}
			if !covered {
				t.Errorf("seed %d: swept point %v lies below the exact front %v",
					seed, p.Value, pareto.Values(exact))
			}
		}
	}
}

// TestSweepSBOGuarantees checks Properties 1-2 hold for every SBO run
// the engine produces (the memoized π1/π2 must behave exactly like the
// unprepared algorithm).
func TestSweepSBOGuarantees(t *testing.T) {
	in := gen.GridBatch(100, 8, 11)
	res, err := Sweep(context.Background(), in, Config{Deltas: testGrid(), SkipRLS: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Runs {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Label(), r.Err)
		}
		direct, err := core.SBOWithLPT(in, r.Delta)
		if err != nil {
			t.Fatal(err)
		}
		if r.Value.Cmax != direct.Cmax || r.Value.Mmax != direct.Mmax {
			t.Errorf("%s: engine %v, direct SBO (%d,%d)", r.Label(), r.Value, direct.Cmax, direct.Mmax)
		}
		if float64(r.SBO.Cmax) > r.SBO.CmaxBound()+1e-9 {
			t.Errorf("%s: Cmax %d exceeds Property 1 bound %.2f", r.Label(), r.SBO.Cmax, r.SBO.CmaxBound())
		}
		if float64(r.SBO.Mmax) > r.SBO.MmaxBound()+1e-9 {
			t.Errorf("%s: Mmax %d exceeds Property 2 bound %.2f", r.Label(), r.SBO.Mmax, r.SBO.MmaxBound())
		}
	}
}

// TestSweepRLSMatchesUnprepared checks the memoized RLS path returns
// bit-identical results to calling core.RLSIndependent directly.
func TestSweepRLSMatchesUnprepared(t *testing.T) {
	in := gen.Uniform(80, 6, 9)
	res, err := Sweep(context.Background(), in, Config{Deltas: []float64{2, 2.5, 3, 4, 8}, SkipSBO: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 5*len(DefaultTies) {
		t.Fatalf("got %d runs, want %d", len(res.Runs), 5*len(DefaultTies))
	}
	for _, r := range res.Runs {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Label(), r.Err)
		}
		direct, err := core.RLSIndependent(in, r.Delta, r.Tie)
		if err != nil {
			t.Fatal(err)
		}
		if r.Value.Cmax != direct.Cmax || r.Value.Mmax != direct.Mmax {
			t.Errorf("%s: engine %v, direct RLS (%d,%d)", r.Label(), r.Value, direct.Cmax, direct.Mmax)
		}
		if !reflect.DeepEqual(r.Assignment, direct.Schedule.Assignment()) {
			t.Errorf("%s: assignment differs from direct RLS", r.Label())
		}
		if r.RLS.LB != direct.LB || r.RLS.Cap != direct.Cap {
			t.Errorf("%s: LB/Cap (%d,%d), direct (%d,%d)", r.Label(), r.RLS.LB, r.RLS.Cap, direct.LB, direct.Cap)
		}
	}
}

func TestSweepCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := gen.Uniform(50, 4, 1)
	if _, err := Sweep(ctx, in, Config{Deltas: testGrid()}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestSweepCancelledMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := 0
	testHookAfterRun = func() {
		done++
		if done == 3 {
			cancel()
		}
	}
	defer func() { testHookAfterRun = nil }()
	in := gen.Uniform(50, 4, 1)
	// One worker so the hook counter needs no synchronization and the
	// cancellation point is deterministic.
	_, err := Sweep(ctx, in, Config{Deltas: testGrid(), Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if done >= len(testGrid())*(1+len(DefaultTies)) {
		t.Fatalf("sweep ran all %d jobs despite cancellation", done)
	}
}

func TestSweepConfigValidation(t *testing.T) {
	in := gen.Uniform(10, 2, 1)
	ctx := context.Background()
	cases := []Config{
		{},                               // empty grid
		{Deltas: []float64{1, -2}},       // negative δ
		{Deltas: []float64{0}},           // zero δ
		{Deltas: []float64{math.Inf(1)}}, // infinite δ
		{Deltas: []float64{math.NaN()}},  // NaN δ
		{Deltas: []float64{1}, SkipSBO: true, SkipRLS: true}, // nothing selected
		{Deltas: []float64{1}, SkipSBO: true},                // RLS needs δ >= 2
	}
	for i, cfg := range cases {
		if _, err := Sweep(ctx, in, cfg); err == nil {
			t.Errorf("case %d: no error for invalid config %+v", i, cfg)
		}
	}
	// δ < 2 entries are silently skipped for RLS but swept by SBO.
	res, err := Sweep(ctx, in, Config{Deltas: []float64{0.5, 3}})
	if err != nil {
		t.Fatal(err)
	}
	want := 2 + len(DefaultTies) // SBO at 0.5 and 3, RLS only at 3
	if len(res.Runs) != want {
		t.Fatalf("got %d runs, want %d", len(res.Runs), want)
	}
	if _, err := Sweep(ctx, model.NewInstance(0, nil, nil), Config{Deltas: []float64{1}}); err == nil {
		t.Error("no error for invalid instance")
	}
}

func TestGrids(t *testing.T) {
	lin := mustGrid(LinearGrid(1, 5, 5))
	if !reflect.DeepEqual(lin, []float64{1, 2, 3, 4, 5}) {
		t.Errorf("LinearGrid = %v", lin)
	}
	geo := mustGrid(GeometricGrid(0.25, 4, 5))
	want := []float64{0.25, 0.5, 1, 2, 4}
	for i := range geo {
		if math.Abs(geo[i]-want[i]) > 1e-12 {
			t.Errorf("GeometricGrid[%d] = %g, want %g", i, geo[i], want[i])
		}
	}
	// Bounds whose ratio overflows float64 still give finite,
	// increasing points with the exact end points.
	for _, b := range [][2]float64{{1e-300, 1e300}, {5e-324, math.MaxFloat64}} {
		ext := mustGrid(GeometricGrid(b[0], b[1], 7))
		if ext[0] != b[0] || ext[6] != b[1] {
			t.Errorf("GeometricGrid(%g, %g) ends = %g, %g", b[0], b[1], ext[0], ext[6])
		}
		for i, d := range ext {
			if !(d > 0) || math.IsInf(d, 0) || (i > 0 && !(d > ext[i-1])) {
				t.Errorf("GeometricGrid(%g, %g)[%d] = %g: not finite and increasing", b[0], b[1], i, d)
			}
		}
	}
	if g := mustGrid(LinearGrid(3, 3, 1)); !reflect.DeepEqual(g, []float64{3}) {
		t.Errorf("single-point grid = %v", g)
	}
	// Invalid grids report errors (not panics): CLI users get a
	// message, not a stack trace.
	bad := []struct {
		lo, hi float64
		n      int
	}{
		{0, 1, 3},
		{-1, 1, 3},
		{2, 1, 3},
		{1, 2, 0},
		{math.NaN(), 2, 3},
		{1, math.NaN(), 3},
		{1, math.Inf(1), 3},
		{math.Inf(1), math.Inf(1), 3},
	}
	for _, c := range bad {
		if _, err := LinearGrid(c.lo, c.hi, c.n); err == nil {
			t.Errorf("LinearGrid(%g, %g, %d): no error", c.lo, c.hi, c.n)
		}
		if _, err := GeometricGrid(c.lo, c.hi, c.n); err == nil {
			t.Errorf("GeometricGrid(%g, %g, %d): no error", c.lo, c.hi, c.n)
		}
	}
}

func TestFrontPrefersLowestRunIndexWitness(t *testing.T) {
	// All tasks identical: many runs achieve the same value, so the
	// witness must be the earliest run in job order.
	in := model.NewInstance(2, []model.Time{4, 4, 4, 4}, []model.Mem{2, 2, 2, 2})
	res, err := Sweep(context.Background(), in, Config{Deltas: []float64{2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Front {
		for i := 0; i < p.RunIndex; i++ {
			if res.Runs[i].Err == nil && res.Runs[i].Value == p.Value {
				t.Fatalf("front witness %d but run %d already achieved %v", p.RunIndex, i, p.Value)
			}
		}
	}
}

// assembleFrontQuadratic is the pairwise dominance scan AssembleFront
// replaced, kept as its reference: a point survives when no other
// value weakly dominates it, the first run of each value is its
// witness, and the front is sorted by Cmax.
func assembleFrontQuadratic(runs []Run) []FrontPoint {
	var pts []FrontPoint
	for i, r := range runs {
		if r.Err != nil {
			continue
		}
		pts = append(pts, FrontPoint{Value: r.Value, RunIndex: i})
	}
	var front []FrontPoint
	for _, p := range pts {
		dominated := false
		for _, q := range pts {
			if q.Value != p.Value && q.Value.WeaklyDominates(p.Value) {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		dup := false
		for _, o := range front {
			if o.Value == p.Value {
				dup = true
				break
			}
		}
		if !dup {
			front = append(front, p)
		}
	}
	sort.Slice(front, func(a, b int) bool { return front[a].Value.Cmax < front[b].Value.Cmax })
	return front
}

// TestAssembleFrontMatchesQuadratic: the sort-then-sweep front equals
// the pairwise scan on random run lists. Values come from a small grid
// so duplicates, shared Cmax and shared Mmax are common, and about a
// fifth of the runs carry an error.
func TestAssembleFrontMatchesQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		runs := make([]Run, rng.Intn(24))
		for i := range runs {
			runs[i].Value = model.Value{Cmax: model.Time(rng.Intn(6)), Mmax: model.Mem(rng.Intn(6))}
			if rng.Intn(5) == 0 {
				runs[i].Err = errors.New("failed run")
			}
		}
		got, want := AssembleFront(runs), assembleFrontQuadratic(runs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: front %v, want %v (runs %+v)", trial, got, want, runs)
		}
	}
}
