package refine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"iter"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"storagesched/internal/cache"
	"storagesched/internal/core"
	"storagesched/internal/engine"
	"storagesched/internal/gen"
)

// adaptiveWorkload is the mixed batch the driver tests sweep: two
// instances whose fronts bend, one graph, and one per-item override.
func adaptiveWorkload() []engine.BatchItem {
	override := engine.Config{Deltas: []float64{0.5, 2, 8}}
	return []engine.BatchItem{
		{Instance: gen.Uniform(200, 16, 1)},
		{Graph: gen.ForkJoin(8, 6, 10, 1), Override: &override},
		{Instance: gen.EmbeddedCode(200, 16, 1)},
	}
}

func sliceSeq(items []engine.BatchItem) iter.Seq[engine.BatchItem] {
	return engine.BatchOfItems(items...)
}

func adaptiveConfig(workers int) engine.BatchConfig {
	grid, err := engine.GeometricGrid(0.0625, 256, 6)
	if err != nil {
		panic(err)
	}
	return engine.BatchConfig{Config: engine.Config{Deltas: grid, Workers: workers}}
}

func collectAdaptive(t *testing.T, items []engine.BatchItem, cfg engine.BatchConfig, rcfg Config) []engine.BatchResult {
	t.Helper()
	var out []engine.BatchResult
	err := SweepBatchAdaptive(context.Background(), sliceSeq(items), cfg, rcfg, func(br engine.BatchResult) error {
		out = append(out, br)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAdaptiveDeterministicAcrossWorkers(t *testing.T) {
	items := adaptiveWorkload()
	rcfg := Config{Gap: 0.05, MaxPoints: 12}
	base := collectAdaptive(t, items, adaptiveConfig(1), rcfg)
	if len(base) != len(items) {
		t.Fatalf("emitted %d results, want %d", len(base), len(items))
	}
	for i, br := range base {
		if br.Index != i {
			t.Errorf("result %d has index %d, want input order", i, br.Index)
		}
		if br.Err != nil {
			t.Errorf("item %d failed: %v", i, br.Err)
		}
	}
	for _, workers := range []int{4, runtime.NumCPU()} {
		got := collectAdaptive(t, items, adaptiveConfig(workers), rcfg)
		if !reflect.DeepEqual(base, got) {
			t.Errorf("workers=%d: adaptive results differ from the single-worker run", workers)
		}
	}
}

func TestAdaptiveMergePreservesCoarseRunsAndDominates(t *testing.T) {
	items := adaptiveWorkload()
	cfg := adaptiveConfig(0)
	var coarse []engine.BatchResult
	if err := engine.SweepBatch(context.Background(), sliceSeq(items), cfg, func(br engine.BatchResult) error {
		coarse = append(coarse, br)
		return br.Err
	}); err != nil {
		t.Fatal(err)
	}
	merged := collectAdaptive(t, items, cfg, Config{Gap: 0.05, MaxPoints: 12})

	refinedSomething := false
	for i := range items {
		c, m := coarse[i].Result, merged[i].Result
		if len(m.Runs) < len(c.Runs) {
			t.Fatalf("item %d: merged %d runs < coarse %d", i, len(m.Runs), len(c.Runs))
		}
		if !reflect.DeepEqual(m.Runs[:len(c.Runs)], c.Runs) {
			t.Errorf("item %d: coarse runs are not a prefix of the merged runs", i)
		}
		if len(m.Runs) > len(c.Runs) {
			refinedSomething = true
		}
		if !reflect.DeepEqual(m.Bounds, c.Bounds) {
			t.Errorf("item %d: merged bounds differ from coarse", i)
		}
		// Pointwise weak dominance: refinement may only improve the
		// front.
		for _, cp := range c.Front {
			ok := false
			for _, mp := range m.Front {
				if mp.Value.WeaklyDominates(cp.Value) {
					ok = true
					break
				}
			}
			if !ok {
				t.Errorf("item %d: coarse front point %v not dominated by the adaptive front", i, cp.Value)
			}
		}
	}
	if !refinedSomething {
		t.Error("no item was refined; the workload should exercise the second pass")
	}
}

func TestAdaptiveNoFlaggedGapsEqualsCoarse(t *testing.T) {
	items := adaptiveWorkload()
	cfg := adaptiveConfig(0)
	var coarse []engine.BatchResult
	if err := engine.SweepBatch(context.Background(), sliceSeq(items), cfg, func(br engine.BatchResult) error {
		coarse = append(coarse, br)
		return br.Err
	}); err != nil {
		t.Fatal(err)
	}
	// A threshold no finite gap can exceed: the second pass must plan
	// nothing and the merged stream must equal the coarse one.
	got := collectAdaptive(t, items, cfg, Config{Gap: 0.999})
	if !reflect.DeepEqual(coarse, got) {
		t.Error("with no flagged gaps, adaptive results differ from plain SweepBatch")
	}
}

func TestAdaptiveItemErrorPassesThrough(t *testing.T) {
	boom := errors.New("bad source")
	items := []engine.BatchItem{
		{Instance: gen.Uniform(20, 3, 1)},
		{Err: boom, Tag: "poisoned"},
	}
	got := collectAdaptive(t, items, adaptiveConfig(0), Config{})
	if len(got) != 2 {
		t.Fatalf("emitted %d results, want 2", len(got))
	}
	if got[0].Err != nil {
		t.Errorf("good item failed: %v", got[0].Err)
	}
	if !errors.Is(got[1].Err, boom) {
		t.Errorf("poisoned item error = %v, want %v", got[1].Err, boom)
	}
	if got[1].Tag != "poisoned" {
		t.Errorf("poisoned item tag = %v, not echoed", got[1].Tag)
	}
}

func TestAdaptiveArgumentErrors(t *testing.T) {
	ctx := context.Background()
	emit := func(engine.BatchResult) error { return nil }
	cfg := adaptiveConfig(0)
	if err := SweepBatchAdaptive(ctx, nil, cfg, Config{}, emit); err == nil {
		t.Error("nil sequence accepted")
	}
	if err := SweepBatchAdaptive(ctx, sliceSeq(nil), cfg, Config{}, nil); err == nil {
		t.Error("nil emit accepted")
	}
	if err := SweepBatchAdaptive(ctx, sliceSeq(nil), cfg, Config{Gap: -1}, emit); err == nil {
		t.Error("invalid refine config accepted")
	}
}

func TestAdaptiveEmitErrorAborts(t *testing.T) {
	boom := errors.New("stop")
	err := SweepBatchAdaptive(context.Background(), sliceSeq(adaptiveWorkload()), adaptiveConfig(0), Config{},
		func(engine.BatchResult) error { return boom })
	if !errors.Is(err, boom) {
		t.Errorf("emit error not propagated: %v", err)
	}
}

func TestAdaptiveCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := SweepBatchAdaptive(ctx, sliceSeq(adaptiveWorkload()), adaptiveConfig(0), Config{},
		func(engine.BatchResult) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled adaptive sweep returned %v, want context.Canceled", err)
	}
}

// The cache contract of the two-pass pipeline: the coarse pass shares
// entries with plain SweepBatch runs of the same grid, refined entries
// key on their own override fingerprint, and a fully warm adaptive run
// flags CacheHit on every item while reproducing the fronts exactly.
func TestAdaptiveCacheInteraction(t *testing.T) {
	items := adaptiveWorkload()
	cfg := adaptiveConfig(0)
	c, err := cache.New(cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = c

	// Warm the coarse entries with a plain batch (as a fixed-grid
	// production run would).
	if err := engine.SweepBatch(context.Background(), sliceSeq(items), cfg, func(br engine.BatchResult) error {
		if br.CacheHit {
			return fmt.Errorf("item %d hit an empty cache", br.Index)
		}
		return br.Err
	}); err != nil {
		t.Fatal(err)
	}
	warm := c.Stats()

	// First adaptive run: the coarse pass must be served entirely from
	// the warm entries; the refinement pass is cold.
	rcfg := Config{Gap: 0.05, MaxPoints: 12}
	first := collectAdaptive(t, items, cfg, rcfg)
	afterFirst := c.Stats()
	if got := afterFirst.Hits - warm.Hits; got < int64(len(items)) {
		t.Errorf("adaptive coarse pass hit %d warm entries, want at least %d", got, len(items))
	}

	// Second adaptive run: both passes warm — every item is a cache
	// hit and the merged results are identical.
	second := collectAdaptive(t, items, cfg, rcfg)
	for i, br := range second {
		if !br.CacheHit {
			t.Errorf("item %d: fully warm adaptive run not flagged CacheHit", i)
		}
		// Cached Results elide witness payloads, so compare the front
		// artifacts.
		if !reflect.DeepEqual(br.Result.Front, first[i].Result.Front) {
			t.Errorf("item %d: warm front differs from computed one", i)
		}
		if !reflect.DeepEqual(br.Result.Bounds, first[i].Result.Bounds) {
			t.Errorf("item %d: warm bounds differ from computed ones", i)
		}
	}
	afterSecond := c.Stats()
	if afterSecond.Misses != afterFirst.Misses {
		t.Errorf("fully warm adaptive run missed %d times", afterSecond.Misses-afterFirst.Misses)
	}
}

// sweepBatchTwoPass is the adaptive pipeline as two whole-batch
// engine.SweepBatch passes with a barrier between them: the reference
// the streamed per-item refinement phase is held to. It materializes
// the sequence, sweeps every item at the coarse grid, plans each
// item's grid, sweeps the planned grids as per-item overrides and
// merges each item's coarse and refined runs before emitting anything.
func sweepBatchTwoPass(ctx context.Context, items iter.Seq[engine.BatchItem], cfg engine.BatchConfig, rcfg Config, emit func(engine.BatchResult) error) error {
	if _, err := rcfg.normalized(); err != nil {
		return err
	}
	var all []engine.BatchItem
	for item := range items {
		all = append(all, item)
	}
	coarse := make([]engine.BatchResult, 0, len(all))
	if err := engine.SweepBatch(ctx, engine.BatchOfItems(all...), cfg, func(br engine.BatchResult) error {
		coarse = append(coarse, br)
		return nil
	}); err != nil {
		return err
	}
	refItems := make([]engine.BatchItem, 0, len(all))
	refOf := make(map[int]int, len(all)) // input index -> refItems index
	for i, br := range coarse {
		if br.Err != nil {
			continue
		}
		grid, err := Grid(br.Result, all[i].Graph != nil, rcfg)
		if err != nil {
			return err
		}
		if len(grid) == 0 {
			continue
		}
		eff := cfg.Config
		if all[i].Override != nil {
			eff = *all[i].Override
		}
		eff.Deltas = grid
		refOf[i] = len(refItems)
		refItems = append(refItems, engine.BatchItem{Instance: all[i].Instance, Graph: all[i].Graph, Override: &eff})
	}
	refined := make([]engine.BatchResult, 0, len(refItems))
	if len(refItems) > 0 {
		if err := engine.SweepBatch(ctx, engine.BatchOfItems(refItems...), cfg, func(br engine.BatchResult) error {
			refined = append(refined, br)
			return nil
		}); err != nil {
			return err
		}
	}
	for i, br := range coarse {
		if ri, ok := refOf[i]; ok && br.Err == nil {
			rr := refined[ri]
			if rr.Err != nil {
				br.Err = fmt.Errorf("refine: refinement pass for item %d: %w", i, rr.Err)
				br.Result = nil
				br.CacheHit = false
			} else {
				runs := make([]engine.Run, 0, len(br.Result.Runs)+len(rr.Result.Runs))
				runs = append(runs, br.Result.Runs...)
				runs = append(runs, rr.Result.Runs...)
				br.Result = &engine.Result{Bounds: br.Result.Bounds, Runs: runs, Front: engine.AssembleFront(runs)}
				br.CacheHit = br.CacheHit && rr.CacheHit
			}
		}
		if err := emit(br); err != nil {
			return err
		}
	}
	return nil
}

// differentialWorkload is a generated mix for the streamed-vs-two-pass
// comparison: every independent-task and DAG family, per-item
// overrides that change the families, ties and grid (one with no RLS
// point, one with an empty grid), and source errors.
func differentialWorkload(seed int64) []engine.BatchItem {
	sboOnly := engine.Config{Deltas: []float64{0.125, 0.5, 1, 1.75}}
	rlsOnly := engine.Config{Deltas: []float64{2, 3, 8, 32}, SkipSBO: true, Ties: []core.TieBreak{core.TieSPT, core.TieLPT}}
	graphGrid := engine.Config{Deltas: []float64{0.5, 2, 4, 16}, Ties: []core.TieBreak{core.TieBottomLevel, core.TieByID}}
	empty := engine.Config{}
	var items []engine.BatchItem
	for i, f := range gen.Families() {
		items = append(items, engine.BatchItem{Instance: f.Gen(30+8*i, 3+i, seed), Tag: f.Name})
	}
	for _, f := range gen.DAGFamilies() {
		items = append(items, engine.BatchItem{Graph: f.Gen(3, 24, seed), Tag: f.Name})
	}
	items[1].Override = &sboOnly
	items[3].Override = &rlsOnly
	items[len(items)-2].Override = &graphGrid
	return append(items[:4:4], append([]engine.BatchItem{
		{Err: fmt.Errorf("source %d unreadable", seed), Tag: "bad"},
		{Instance: gen.Uniform(12, 2, seed), Override: &empty},
	}, items[4:]...)...)
}

// resultDiff describes the first difference between two emitted
// results in the fields a front line is made of, or returns "".
func resultDiff(a, b engine.BatchResult) string {
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	switch {
	case a.Index != b.Index:
		return fmt.Sprintf("index %d vs %d", a.Index, b.Index)
	case errText(a.Err) != errText(b.Err):
		return fmt.Sprintf("err %q vs %q", errText(a.Err), errText(b.Err))
	case a.CacheHit != b.CacheHit:
		return fmt.Sprintf("cache hit %v vs %v", a.CacheHit, b.CacheHit)
	case a.Tag != b.Tag:
		return fmt.Sprintf("tag %v vs %v", a.Tag, b.Tag)
	case (a.Result == nil) != (b.Result == nil):
		return "result presence differs"
	case a.Result == nil:
		return ""
	case !reflect.DeepEqual(a.Result.Bounds, b.Result.Bounds):
		return fmt.Sprintf("bounds %+v vs %+v", a.Result.Bounds, b.Result.Bounds)
	case len(a.Result.Runs) != len(b.Result.Runs):
		return fmt.Sprintf("%d runs vs %d", len(a.Result.Runs), len(b.Result.Runs))
	case !reflect.DeepEqual(a.Result.Front, b.Result.Front):
		return fmt.Sprintf("front %v vs %v", a.Result.Front, b.Result.Front)
	}
	for i, ra := range a.Result.Runs {
		rb := b.Result.Runs[i]
		if ra.Algorithm != rb.Algorithm || ra.Tie != rb.Tie || ra.Delta != rb.Delta || ra.Value != rb.Value || errText(ra.Err) != errText(rb.Err) {
			return fmt.Sprintf("run %d: %s %v %q vs %s %v %q", i, ra.Label(), ra.Value, errText(ra.Err), rb.Label(), rb.Value, errText(rb.Err))
		}
	}
	return ""
}

// dirBlobs reads every entry file of a cache directory.
func dirBlobs(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	blobs := make(map[string][]byte, len(ents))
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		blobs[e.Name()] = data
	}
	return blobs
}

// TestAdaptiveMatchesTwoPassReference holds the streamed per-item
// refinement phase to the two-pass reference over generated instances
// and DAGs: every emitted result agrees field for field across worker
// counts, streaming windows and cache set-ups (none; memory only, cold
// and with the coarse entries warm; a directory cache run cold then
// warm), the caches see the same
// lookups, and a cold directory run leaves the same entries with
// byte-identical blobs.
func TestAdaptiveMatchesTwoPassReference(t *testing.T) {
	rcfg := Config{Gap: 0.05, MaxPoints: 6}
	type run func(context.Context, iter.Seq[engine.BatchItem], engine.BatchConfig, Config, func(engine.BatchResult) error) error
	collect := func(t *testing.T, sweep run, items []engine.BatchItem, cfg engine.BatchConfig) []engine.BatchResult {
		t.Helper()
		var out []engine.BatchResult
		if err := sweep(context.Background(), sliceSeq(items), cfg, rcfg, func(br engine.BatchResult) error {
			out = append(out, br)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	compare := func(t *testing.T, want, got []engine.BatchResult) {
		t.Helper()
		if len(want) != len(got) {
			t.Fatalf("emitted %d results, reference %d", len(got), len(want))
		}
		for i := range want {
			if d := resultDiff(want[i], got[i]); d != "" {
				t.Errorf("result %d: reference vs streamed: %s", i, d)
			}
		}
	}
	newCache := func(t *testing.T, dir string) *cache.Cache {
		t.Helper()
		c, err := cache.New(cache.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, seed := range []int64{1, 2} {
		items := differentialWorkload(seed)
		// The workload must exercise the second phase: some item's
		// adaptive result has more runs than its coarse one.
		coarse := collect(t, func(ctx context.Context, seq iter.Seq[engine.BatchItem], cfg engine.BatchConfig, _ Config, emit func(engine.BatchResult) error) error {
			return engine.SweepBatch(ctx, seq, cfg, emit)
		}, items, adaptiveConfig(2))
		refined := 0
		for i, br := range collect(t, SweepBatchAdaptive, items, adaptiveConfig(2)) {
			if br.Err == nil && len(br.Result.Runs) > len(coarse[i].Result.Runs) {
				refined++
			}
		}
		if refined == 0 {
			t.Errorf("seed %d: no item was refined", seed)
		}
		for _, workers := range []int{1, 2, 4} {
			for _, pending := range []int{1, 2, 0} {
				name := fmt.Sprintf("seed=%d/workers=%d/pending=%d", seed, workers, pending)
				cfg := adaptiveConfig(workers)
				cfg.MaxPending = pending
				t.Run(name+"/nocache", func(t *testing.T) {
					compare(t, collect(t, sweepBatchTwoPass, items, cfg), collect(t, SweepBatchAdaptive, items, cfg))
				})
				t.Run(name+"/mem", func(t *testing.T) {
					// Cold, then with only the coarse entries warm (a
					// plain sweep of the grid ran first): coarse hits
					// whose refined phase still misses.
					for _, warmCoarse := range []bool{false, true} {
						refCfg, newCfg := cfg, cfg
						refCfg.Cache, newCfg.Cache = newCache(t, ""), newCache(t, "")
						if warmCoarse {
							for _, c := range []*cache.Cache{refCfg.Cache, newCfg.Cache} {
								plain := cfg
								plain.Cache = c
								if err := engine.SweepBatch(context.Background(), sliceSeq(items), plain, func(engine.BatchResult) error { return nil }); err != nil {
									t.Fatal(err)
								}
							}
						}
						compare(t, collect(t, sweepBatchTwoPass, items, refCfg), collect(t, SweepBatchAdaptive, items, newCfg))
						if a, b := refCfg.Cache.Stats(), newCfg.Cache.Stats(); a.Hits != b.Hits || a.Misses != b.Misses {
							t.Errorf("warm coarse %v: cache lookups: reference %d hits %d misses, streamed %d hits %d misses", warmCoarse, a.Hits, a.Misses, b.Hits, b.Misses)
						}
					}
				})
				t.Run(name+"/dir", func(t *testing.T) {
					refDir, newDir := t.TempDir(), t.TempDir()
					refCfg, newCfg := cfg, cfg
					for _, phase := range []string{"cold", "warm"} {
						refCfg.Cache, newCfg.Cache = newCache(t, refDir), newCache(t, newDir)
						want := collect(t, sweepBatchTwoPass, items, refCfg)
						got := collect(t, SweepBatchAdaptive, items, newCfg)
						compare(t, want, got)
						for _, br := range got {
							if br.Err == nil && br.CacheHit != (phase == "warm") {
								t.Errorf("%s run: item %d CacheHit = %v", phase, br.Index, br.CacheHit)
							}
						}
						if a, b := refCfg.Cache.Stats(), newCfg.Cache.Stats(); a.Hits != b.Hits || a.Misses != b.Misses {
							t.Errorf("%s run cache lookups: reference %d hits %d misses, streamed %d hits %d misses", phase, a.Hits, a.Misses, b.Hits, b.Misses)
						}
						if phase == "cold" {
							wantBlobs, gotBlobs := dirBlobs(t, refDir), dirBlobs(t, newDir)
							if len(wantBlobs) != len(gotBlobs) {
								t.Errorf("cold run left %d entries, reference %d", len(gotBlobs), len(wantBlobs))
							}
							for k, blob := range wantBlobs {
								if !bytes.Equal(blob, gotBlobs[k]) {
									t.Errorf("entry %s differs from the reference's", k)
								}
							}
						}
					}
				})
			}
		}
	}
}

// blockingSeq yields items[0], then waits until released (or until
// wait elapses, which it reports through timedOut) before yielding the
// rest.
func blockingSeq(items []engine.BatchItem, release <-chan struct{}, wait time.Duration, timedOut *atomic.Bool) iter.Seq[engine.BatchItem] {
	return func(yield func(engine.BatchItem) bool) {
		if !yield(items[0]) {
			return
		}
		select {
		case <-release:
		case <-time.After(wait):
			timedOut.Store(true)
		}
		for _, it := range items[1:] {
			if !yield(it) {
				return
			}
		}
	}
}

// TestAdaptiveStreamsRefinedFronts: an item's refined front is emitted
// as soon as the item is done, before the sequence yields the next
// item. The sequence blocks after item 0 until item 0's line is out;
// the two-pass reference, which reads the whole input first, only gets
// past the block when its timeout fires.
func TestAdaptiveStreamsRefinedFronts(t *testing.T) {
	items := adaptiveWorkload()
	rcfg := Config{Gap: 0.05, MaxPoints: 12}
	coarseRuns := len(collectAdaptive(t, items[:1], adaptiveConfig(2), Config{Gap: 0.999})[0].Result.Runs)
	for _, tc := range []struct {
		name   string
		sweep  func(context.Context, iter.Seq[engine.BatchItem], engine.BatchConfig, Config, func(engine.BatchResult) error) error
		wait   time.Duration
		stream bool
	}{
		{"streamed", SweepBatchAdaptive, 30 * time.Second, true},
		{"two-pass reference", sweepBatchTwoPass, 200 * time.Millisecond, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			release := make(chan struct{})
			var once sync.Once
			var timedOut atomic.Bool
			var got []engine.BatchResult
			err := tc.sweep(context.Background(), blockingSeq(items, release, tc.wait, &timedOut), adaptiveConfig(2), rcfg,
				func(br engine.BatchResult) error {
					if br.Index == 0 {
						once.Do(func() { close(release) })
					}
					got = append(got, br)
					return br.Err
				})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(items) {
				t.Fatalf("emitted %d results, want %d", len(got), len(items))
			}
			if n := len(got[0].Result.Runs); n <= coarseRuns {
				t.Errorf("item 0 has %d runs, no more than its %d coarse ones: not refined", n, coarseRuns)
			}
			if timedOut.Load() == tc.stream {
				t.Errorf("sequence blocked until its timeout: %v, want %v", timedOut.Load(), !tc.stream)
			}
		})
	}
}

// TestAdaptiveMemoryBoundedByMaxPending: on a long adaptive stream the
// sequence is never more than MaxPending items ahead of emission, so
// memory is O(MaxPending) however many items the stream yields.
func TestAdaptiveMemoryBoundedByMaxPending(t *testing.T) {
	const total, pending = 1000, 3
	var emitted atomic.Int64
	var ahead atomic.Int64
	seq := func(yield func(engine.BatchItem) bool) {
		for i := range total {
			if d := int64(i) - emitted.Load(); d > ahead.Load() {
				ahead.Store(d)
			}
			if !yield(engine.BatchItem{Instance: gen.Uniform(10, 3, int64(i))}) {
				return
			}
		}
	}
	cfg := adaptiveConfig(2)
	cfg.MaxPending = pending
	coarseRuns := 0
	for _, d := range cfg.Deltas {
		coarseRuns++
		if d >= 2 {
			coarseRuns += len(engine.DefaultTies)
		}
	}
	refined := 0
	err := SweepBatchAdaptive(context.Background(), seq, cfg, Config{Gap: 0.05}, func(br engine.BatchResult) error {
		if br.Err != nil {
			return br.Err
		}
		if br.Index != int(emitted.Load()) {
			return fmt.Errorf("emitted index %d, want %d", br.Index, emitted.Load())
		}
		if len(br.Result.Runs) > coarseRuns {
			refined++
		}
		emitted.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if emitted.Load() != total {
		t.Fatalf("emitted %d items, want %d", emitted.Load(), total)
	}
	if refined == 0 {
		t.Error("no item was refined; the stream should exercise the second phase")
	}
	if got := ahead.Load(); got > pending {
		t.Errorf("sequence ran %d items ahead of emission, MaxPending is %d", got, pending)
	}
}
