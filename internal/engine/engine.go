// Package engine runs parallel δ-sweeps of the paper's bi-objective
// algorithms and assembles approximate Pareto fronts.
//
// The headline artifact of Saule, Dutot and Mounié is a family of
// (1+δ, 1+1/δ)-approximate schedules parameterized by δ; sweeping δ
// over a grid and keeping the non-dominated (Cmax, Mmax) outcomes
// yields an approximate Pareto front for instances far beyond the
// reach of the exact enumerator (internal/pareto caps at 24 tasks).
// This package is that sweep engine:
//
//   - every (algorithm, δ) pair on the grid is an independent job,
//     executed by a pool of Config.Workers goroutines (default
//     runtime.NumCPU());
//   - per-instance quantities — validation, the Graham lower bounds,
//     the SBO sub-schedules π1/π2 and the RLS tie-break orders — are
//     memoized once per sweep (core.SBOPrepared, core.RLSPrepared)
//     instead of being recomputed once per run;
//   - results land at their job's index, so Result.Runs and the front
//     are deterministic regardless of goroutine interleaving;
//   - the sweep honours context cancellation between jobs.
//
// SweepBatch generalizes the engine to many work items: all (item,
// algorithm, δ) jobs share one worker pool, per-item prepared state is
// still memoized exactly once, and per-item Results stream to a
// callback in item order with at most BatchConfig.MaxPending items
// held in memory — fronts for thousands of items never accumulate.
// Items are independent-task instances or precedence-constrained task
// DAGs (Section 5): graph items run the RLS tie-breaks against
// core.PrepareRLS's memoized topological state, with the lower-bound
// record memoized via bounds.ForGraph, and both kinds mix freely in
// one stream. Sweep and SweepGraph are the single-item special cases.
package engine

import (
	"cmp"
	"context"
	"fmt"
	"iter"
	"math"
	"slices"

	"storagesched/internal/bounds"
	"storagesched/internal/core"
	"storagesched/internal/dag"
	"storagesched/internal/makespan"
	"storagesched/internal/model"
)

// Algorithm identifies which algorithm family produced a sweep run.
type Algorithm int

const (
	// AlgSBO is Algorithm 1 (independent tasks, Section 3).
	AlgSBO Algorithm = iota
	// AlgRLS is the Section 5.2 independent-task variant of
	// Algorithm 2, one run per configured tie-break.
	AlgRLS
)

// String implements fmt.Stringer for tables and provenance labels.
func (a Algorithm) String() string {
	switch a {
	case AlgSBO:
		return "SBO"
	case AlgRLS:
		return "RLS"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// DefaultTies is the RLS tie-break set swept when Config.Ties is nil.
var DefaultTies = []core.TieBreak{core.TieByID, core.TieSPT, core.TieLPT, core.TieBottomLevel}

// Config parameterizes one sweep.
type Config struct {
	// Deltas is the δ-grid. Required non-empty; every entry must be
	// finite and > 0. RLS runs are generated only for entries ≥ 2
	// (Lemma 4 gives no guarantee below that, and the algorithm
	// rejects such δ); SBO covers the full grid.
	Deltas []float64

	// Workers bounds the number of concurrent evaluations; 0 or
	// negative means runtime.NumCPU().
	Workers int

	// AlgC and AlgM are the SBO sub-algorithms for the makespan and
	// memory schedules; nil defaults to LPT (the experiments'
	// workhorse configuration).
	AlgC, AlgM makespan.Algorithm

	// Ties selects the RLS tie-breaks to sweep; nil means DefaultTies.
	Ties []core.TieBreak

	// SkipSBO / SkipRLS exclude an algorithm family from the sweep.
	SkipSBO bool
	SkipRLS bool
}

// tieSet returns the RLS tie-breaks the config sweeps: Ties, or
// DefaultTies when it is nil.
func (c Config) tieSet() []core.TieBreak {
	if c.Ties == nil {
		return DefaultTies
	}
	return c.Ties
}

// Run is one algorithm evaluation at one grid point. Runs appear in
// Result.Runs in grid-major order (all algorithms at Deltas[0], then
// Deltas[1], ...) with SBO before the RLS tie-breaks at each δ —
// independent of which worker executed them.
type Run struct {
	Algorithm Algorithm
	// Tie is the RLS tie-break; meaningful only when Algorithm is
	// AlgRLS.
	Tie   core.TieBreak
	Delta float64

	// Value is the achieved (Cmax, Mmax) point and Assignment its
	// witness. Unset when Err is non-nil.
	Value      model.Value
	Assignment model.Assignment

	// SBO / RLS retain the full per-run analysis record of the
	// algorithm that ran (exactly one is non-nil on success).
	SBO *core.SBOResult
	RLS *core.RLSResult

	// Err is a per-run failure (for example ErrCapTooSmall from a
	// constrained variant); the sweep continues past it and the run
	// is excluded from the front.
	Err error
}

// Label renders a short provenance tag such as "SBO(δ=1)" or
// "RLS(δ=3,SPT)".
func (r Run) Label() string {
	if r.Algorithm == AlgRLS {
		return fmt.Sprintf("RLS(δ=%.4g,%s)", r.Delta, r.Tie)
	}
	return fmt.Sprintf("SBO(δ=%.4g)", r.Delta)
}

// FrontPoint is one point of the assembled approximate Pareto front
// with the index (into Result.Runs) of the run that achieved it. When
// several runs achieve the same value, the lowest index wins, keeping
// the witness deterministic.
type FrontPoint struct {
	Value    model.Value
	RunIndex int
}

// Result is the outcome of one sweep.
type Result struct {
	// Bounds is the per-instance lower-bound record, computed once
	// and shared by every run of the sweep.
	Bounds bounds.Record

	// Runs holds every evaluation in deterministic job order.
	Runs []Run

	// Front is the non-dominated hull of the successful runs'
	// values, sorted by increasing Cmax (hence decreasing Mmax).
	Front []FrontPoint
}

// FrontValues extracts just the objective values of the front.
func (res *Result) FrontValues() []model.Value {
	vs := make([]model.Value, len(res.Front))
	for i, p := range res.Front {
		vs[i] = p.Value
	}
	return vs
}

// LinearGrid returns n evenly spaced δ values covering [lo, hi]. It
// reports an error if lo is not a positive finite number, hi is not a
// finite number ≥ lo, or n < 1 — δ must be positive and the grid
// non-empty.
func LinearGrid(lo, hi float64, n int) ([]float64, error) {
	if err := checkGrid(lo, hi, n); err != nil {
		return nil, err
	}
	if n == 1 {
		return []float64{lo}, nil
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi
	return out, nil
}

// GeometricGrid returns n geometrically spaced δ values covering
// [lo, hi] — the natural grid for δ, whose two guarantees trade off as
// (1+δ) against (1+1/δ). It errors on the same conditions as
// LinearGrid.
func GeometricGrid(lo, hi float64, n int) ([]float64, error) {
	if err := checkGrid(lo, hi, n); err != nil {
		return nil, err
	}
	if n == 1 {
		return []float64{lo}, nil
	}
	out := make([]float64, n)
	ratio := hi / lo
	for i := range out {
		t := float64(i) / float64(n-1)
		if math.IsInf(ratio, 1) {
			// hi/lo overflows for extreme bounds; interpolate the
			// logarithms instead, so every point stays finite.
			out[i] = math.Exp(math.Log(lo) + t*(math.Log(hi)-math.Log(lo)))
		} else {
			out[i] = lo * math.Pow(ratio, t)
		}
	}
	out[0], out[n-1] = lo, hi
	return out, nil
}

func checkGrid(lo, hi float64, n int) error {
	if !(lo > 0) || !(hi >= lo) || math.IsInf(lo, 1) || math.IsInf(hi, 1) || n < 1 {
		return fmt.Errorf("engine: invalid grid lo=%g hi=%g n=%d (need 0 < lo <= hi finite, n >= 1)", lo, hi, n)
	}
	return nil
}

// testHookAfterRun, when non-nil, is invoked by workers after each
// completed job — tests use it to cancel a sweep mid-flight
// deterministically.
var testHookAfterRun func()

// job is one scheduled evaluation; index is its slot in Result.Runs.
type job struct {
	alg   Algorithm
	tie   core.TieBreak
	delta float64
}

// Sweep evaluates the configured algorithms over the δ-grid with a
// worker pool and assembles the approximate Pareto front. On context
// cancellation it abandons the remaining jobs and returns ctx.Err().
//
// Sweep is the single-instance form of SweepBatch: to sweep many
// instances, batch them — the worker pool is then shared across
// instances, so it never idles at instance boundaries.
func Sweep(ctx context.Context, in *model.Instance, cfg Config) (*Result, error) {
	return sweepOne(ctx, BatchOf(in), cfg)
}

// SweepGraph is the task-DAG form of Sweep: it evaluates the RLS
// tie-breaks over the δ ≥ 2 part of the grid against the prepared
// graph (core.PrepareRLS) and assembles the approximate Pareto front
// from the achieved (Cmax, Mmax) points. The Result's Bounds is the
// memoized bounds.ForGraph record, so front ratios are against the
// critical-path-aware makespan lower bound.
//
// SweepGraph is the single-graph form of SweepBatch: to sweep many
// graphs — or a mix of graphs and instances — batch them.
func SweepGraph(ctx context.Context, g *dag.Graph, cfg Config) (*Result, error) {
	return sweepOne(ctx, BatchOfGraphs(g), cfg)
}

// sweepOne runs a one-item batch and unwraps its Result.
func sweepOne(ctx context.Context, items iter.Seq[BatchItem], cfg Config) (*Result, error) {
	var out *Result
	err := SweepBatch(ctx, items, BatchConfig{Config: cfg}, func(br BatchResult) error {
		if br.Err != nil {
			return br.Err
		}
		out = br.Result
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// buildJobs lays out the deterministic job list: grid-major, SBO then
// the tie-breaks at each δ. Graph items run the RLS family only — SBO
// (Algorithm 1) is defined on independent tasks — so for them the grid
// needs at least one δ ≥ 2 and SkipRLS is an error.
func buildJobs(cfg Config, graph bool) ([]job, error) {
	if len(cfg.Deltas) == 0 {
		return nil, fmt.Errorf("engine: empty delta grid")
	}
	for _, d := range cfg.Deltas {
		if !(d > 0) || math.IsInf(d, 0) {
			return nil, fmt.Errorf("engine: delta = %g, need finite delta > 0", d)
		}
	}
	if graph && cfg.SkipRLS {
		return nil, fmt.Errorf("engine: graph sweeps run only the RLS family, but SkipRLS is set")
	}
	if cfg.SkipSBO && cfg.SkipRLS {
		return nil, fmt.Errorf("engine: both algorithm families skipped")
	}
	var jobs []job
	for _, d := range cfg.Deltas {
		if !cfg.SkipSBO && !graph {
			jobs = append(jobs, job{alg: AlgSBO, delta: d})
		}
		if !cfg.SkipRLS && d >= 2 {
			for _, tie := range cfg.tieSet() {
				jobs = append(jobs, job{alg: AlgRLS, tie: tie, delta: d})
			}
		}
	}
	if len(jobs) == 0 {
		if graph {
			return nil, fmt.Errorf("engine: graph sweep selects no runs (RLS needs some delta >= 2)")
		}
		return nil, fmt.Errorf("engine: sweep selects no runs (RLS needs some delta >= 2)")
	}
	return jobs, nil
}

func hasRLS(jobs []job) bool {
	for _, j := range jobs {
		if j.alg == AlgRLS {
			return true
		}
	}
	return false
}

// AssembleFront keeps the non-dominated values of the successful runs,
// one witness per distinct value (lowest run index), sorted by Cmax.
// It is how every sweep Result derives Front from Runs; refinement
// passes (internal/refine) call it to merge coarse and refined run
// lists into one deduplicated front.
func AssembleFront(runs []Run) []FrontPoint {
	pts := make([]FrontPoint, 0, len(runs))
	for i, r := range runs {
		if r.Err != nil {
			continue
		}
		pts = append(pts, FrontPoint{Value: r.Value, RunIndex: i})
	}
	// Sorted by (Cmax, Mmax, run index), a point is non-dominated and
	// the first of its value exactly when its Mmax is below that of
	// every point before it.
	slices.SortFunc(pts, func(a, b FrontPoint) int {
		return cmp.Or(cmp.Compare(a.Value.Cmax, b.Value.Cmax),
			cmp.Compare(a.Value.Mmax, b.Value.Mmax), a.RunIndex-b.RunIndex)
	})
	var front []FrontPoint
	for _, p := range pts {
		if len(front) == 0 || p.Value.Mmax < front[len(front)-1].Value.Mmax {
			front = append(front, p)
		}
	}
	return front
}
