package exp

import (
	"context"
	"fmt"
	"io"

	"storagesched/internal/cache"
	"storagesched/internal/dag"
	"storagesched/internal/engine"
	"storagesched/internal/gen"
	"storagesched/internal/model"
	"storagesched/internal/refine"
)

func init() {
	register(Experiment{
		ID:    "ADAPTIVE",
		Title: "Adaptive δ-grid refinement — front quality per run versus fixed grids",
		Paper: "the (1+δ, 1+1/δ) trade-off bends sharply near the storage-constraint boundary; refining δ only where the swept front bends must match or beat a fixed geometric grid of at least the same total run budget on the front's largest relative gap, while coarse cache entries stay reusable",
		Run:   runAdaptive,
	})
}

// adaptiveItem is one workload row: an instance or graph with the
// label the report prints.
type adaptiveItem struct {
	label string
	in    *model.Instance
	g     *dag.Graph
}

// adaptiveWorkload draws the experiment families: large instances
// whose fronts have resolvable bends, and fork-join DAGs exercising
// the RLS-only (δ ≥ 2) refinement path via a per-item override.
func adaptiveWorkload() []adaptiveItem {
	var items []adaptiveItem
	for _, seed := range []int64{1, 3, 4, 6} {
		items = append(items, adaptiveItem{
			label: fmt.Sprintf("uniform(200,16,s%d)", seed),
			in:    gen.Uniform(200, 16, seed),
		})
	}
	for _, seed := range []int64{1, 2, 3} {
		items = append(items, adaptiveItem{
			label: fmt.Sprintf("embedded(200,16,s%d)", seed),
			in:    gen.EmbeddedCode(200, 16, seed),
		})
	}
	for _, seed := range []int64{1, 2} {
		items = append(items, adaptiveItem{
			label: fmt.Sprintf("forkjoin(8,6,10,s%d)", seed),
			g:     gen.ForkJoin(8, 6, 10, seed),
		})
	}
	return items
}

func runAdaptive(w io.Writer) error {
	ctx := context.Background()
	// A deliberately wide, deliberately coarse base grid: most of
	// [1/16, 256] is plateau, which is exactly the regime where a
	// fixed grid wastes runs and refinement concentrates them.
	coarseGrid, err := engine.GeometricGrid(0.0625, 256, 6)
	if err != nil {
		return err
	}
	graphGrid, err := engine.GeometricGrid(2, 64, 5)
	if err != nil {
		return err
	}
	graphOverride := engine.Config{Deltas: graphGrid}
	rcfg := refine.Config{Gap: 0.05, MaxPoints: 12}

	items := adaptiveWorkload()
	batch := make([]engine.BatchItem, len(items))
	for i, it := range items {
		batch[i] = engine.BatchItem{Instance: it.in, Graph: it.g}
		if it.g != nil {
			batch[i].Override = &graphOverride
		}
	}
	seq := engine.BatchOfItems(batch...)

	c, err := cache.New(cache.Config{})
	if err != nil {
		return err
	}
	cfg := batchConfig(engine.Config{Deltas: coarseGrid})
	cfg.Cache = c

	// Round A — the fixed coarse grid, as a plain production batch
	// would run it. Populates the cache.
	coarse := make([]*engine.Result, len(items))
	if err := engine.SweepBatch(ctx, seq, cfg, func(br engine.BatchResult) error {
		if br.Err != nil {
			return fmt.Errorf("coarse item %d: %w", br.Index, br.Err)
		}
		coarse[br.Index] = br.Result
		return nil
	}); err != nil {
		return err
	}
	warm := c.Stats()

	// Round B — the adaptive pipeline over the same items and cache.
	// Its coarse pass must be served from the entries round A wrote:
	// refinement landing must not cost the coarse sweeps again.
	merged := make([]*engine.Result, len(items))
	if err := refine.SweepBatchAdaptive(ctx, seq, cfg, rcfg, func(br engine.BatchResult) error {
		if br.Err != nil {
			return fmt.Errorf("adaptive item %d: %w", br.Index, br.Err)
		}
		merged[br.Index] = br.Result
		return nil
	}); err != nil {
		return err
	}
	afterB := c.Stats()
	if got := afterB.Hits - warm.Hits; got < int64(len(items)) {
		return fmt.Errorf("adaptive coarse pass hit %d warm cache entries, want at least %d", got, len(items))
	}

	// Round C — adaptive again: both passes warm, every item a hit.
	if err := refine.SweepBatchAdaptive(ctx, seq, cfg, rcfg, func(br engine.BatchResult) error {
		if br.Err != nil {
			return fmt.Errorf("warm adaptive item %d: %w", br.Index, br.Err)
		}
		if !br.CacheHit {
			return fmt.Errorf("warm adaptive item %d missed the cache", br.Index)
		}
		return nil
	}); err != nil {
		return err
	}
	afterC := c.Stats()
	if afterC.Misses != afterB.Misses {
		return fmt.Errorf("fully warm adaptive round missed %d entries", afterC.Misses-afterB.Misses)
	}

	fmt.Fprintf(w, "workload: %d items, coarse grid %d points over [%g, %g] (graphs: %d over [%g, %g])\n",
		len(items), len(coarseGrid), coarseGrid[0], coarseGrid[len(coarseGrid)-1],
		len(graphGrid), graphGrid[0], graphGrid[len(graphGrid)-1])
	fmt.Fprintf(w, "refine: gap threshold %.2f, max %d points per item\n\n", rcfg.Gap, rcfg.MaxPoints)
	fmt.Fprintf(w, "%-22s %5s %7s | %5s %7s | %5s %7s  %s\n",
		"item", "runs", "gap", "runs", "gap", "runs", "gap", "verdict")
	fmt.Fprintf(w, "%-22s %13s | %13s | %13s\n", "", "coarse", "adaptive", "fixed(equal+)")

	// Per item: a fixed geometric grid over the same δ-range with at
	// least the adaptive run budget is the equal-budget baseline the
	// claim is against.
	var violations int
	var refinedItems int
	var sumAdaptive, sumFixed float64
	for i, it := range items {
		lo, hi, basePts := coarseGrid[0], coarseGrid[len(coarseGrid)-1], len(coarseGrid)
		if it.g != nil {
			lo, hi, basePts = graphGrid[0], graphGrid[len(graphGrid)-1], len(graphGrid)
		}
		// Size the baseline grid arithmetically — one SBO run per point
		// (instances only) plus the tie-break family at every δ ≥ 2 —
		// so each item is swept exactly once, at the first point count
		// whose run budget reaches the adaptive one.
		runsFor := func(grid []float64) int {
			runs := 0
			for _, d := range grid {
				if it.g == nil {
					runs++
				}
				if d >= 2 {
					runs += len(engine.DefaultTies)
				}
			}
			return runs
		}
		pts := basePts
		var fixedGrid []float64
		for {
			pts++
			fixedGrid, err = engine.GeometricGrid(lo, hi, pts)
			if err != nil {
				return err
			}
			if runsFor(fixedGrid) >= len(merged[i].Runs) {
				break
			}
		}
		var fixed *engine.Result
		fcfg := engine.Config{Deltas: fixedGrid, Workers: sweepWorkers}
		if it.g != nil {
			fixed, err = engine.SweepGraph(ctx, it.g, fcfg)
		} else {
			fixed, err = engine.Sweep(ctx, it.in, fcfg)
		}
		if err != nil {
			return err
		}
		if len(merged[i].Runs) > len(coarse[i].Runs) {
			refinedItems++
		}
		aGap := refine.MaxRelGap(merged[i].Front)
		fGap := refine.MaxRelGap(fixed.Front)
		sumAdaptive += aGap
		sumFixed += fGap
		verdict := "ok"
		if aGap > fGap+1e-9 {
			verdict = "VIOLATED"
			violations++
		}
		fmt.Fprintf(w, "%-22s %5d %7.4f | %5d %7.4f | %5d %7.4f  [%s]\n",
			it.label, len(coarse[i].Runs), refine.MaxRelGap(coarse[i].Front),
			len(merged[i].Runs), aGap, len(fixed.Runs), fGap, verdict)

		// Refinement may only improve: the merged front must pointwise
		// weakly dominate the coarse one.
		for _, cp := range coarse[i].Front {
			dominated := false
			for _, mp := range merged[i].Front {
				if mp.Value.WeaklyDominates(cp.Value) {
					dominated = true
					break
				}
			}
			if !dominated {
				return fmt.Errorf("%s: coarse front point %v not dominated by the adaptive front", it.label, cp.Value)
			}
		}
	}
	fmt.Fprintf(w, "\nmean largest relative gap: adaptive %.4f, equal-budget fixed %.4f\n",
		sumAdaptive/float64(len(items)), sumFixed/float64(len(items)))
	fmt.Fprintf(w, "refined items: %d/%d; warm coarse entries reused by the adaptive pass: yes\n",
		refinedItems, len(items))
	if refinedItems == 0 {
		return fmt.Errorf("no item planned any refinement; the workload must exercise the refinement phase")
	}
	if violations > 0 {
		return fmt.Errorf("%d of %d items: adaptive front's largest gap worse than the equal-budget fixed grid", violations, len(items))
	}
	return nil
}
