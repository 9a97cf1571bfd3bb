package refine

import (
	"context"
	"iter"

	"storagesched/internal/engine"
)

// SweepBatchAdaptive sweeps items through the batch engine with a
// per-item refinement phase: once an item's coarse jobs at cfg's grid
// finish, Grid plans the δ-intervals where its front bends and the
// engine re-sweeps them against the item's prepared state (see
// engine.BatchConfig.Refine). Each item's Result holds its coarse runs
// followed by its refined runs, the front re-assembled over both, and
// the results stream to emit in input order, exactly one per item, as
// soon as each item is done. Memory is O(MaxPending), as for
// engine.SweepBatch.
//
// Cache entries are keyed per phase: the coarse phase uses the item's
// base fingerprint — so warm entries written by plain SweepBatch runs
// of the same grid still hit, and vice versa — and the refinement
// phase the fingerprint of its grid. A result is flagged CacheHit only
// when every phase that ran for the item was served from the cache.
func SweepBatchAdaptive(ctx context.Context, items iter.Seq[engine.BatchItem], cfg engine.BatchConfig, rcfg Config, emit func(engine.BatchResult) error) error {
	rcfg, err := rcfg.normalized()
	if err != nil {
		return err
	}
	cfg.Refine = func(res *engine.Result, graph bool) ([]float64, error) {
		return Grid(res, graph, rcfg)
	}
	return engine.SweepBatch(ctx, items, cfg, emit)
}
