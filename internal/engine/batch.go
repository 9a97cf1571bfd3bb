package engine

import (
	"context"
	"fmt"
	"iter"
	"slices"
	"sync"
	"sync/atomic"

	"storagesched/internal/bounds"
	"storagesched/internal/cache"
	"storagesched/internal/core"
	"storagesched/internal/dag"
	"storagesched/internal/makespan"
	"storagesched/internal/model"
)

// BatchItem is one work item of a batch sweep — an independent-task
// instance or a task DAG, with an optional per-item configuration
// override. Exactly one of Instance and Graph must be set.
type BatchItem struct {
	// Instance is the independent-task instance to sweep.
	Instance *model.Instance

	// Graph is the task DAG to sweep. Graph sweeps run the RLS family
	// only (SBO is defined on independent tasks), so the item's
	// effective grid needs at least one δ ≥ 2 and must not set
	// SkipRLS.
	Graph *dag.Graph

	// Override, when non-nil, replaces the batch-wide base Config for
	// this instance only (its Workers field is ignored — the worker
	// pool is shared by the whole batch).
	Override *Config

	// Err, when non-nil, marks the item as failed at the source (for
	// example a file that did not parse): the instance is not swept
	// and its BatchResult carries this error. Streaming producers use
	// it to report per-item read errors without aborting the batch.
	Err error

	// Tag is opaque per-item context (a filename, a seed, a family
	// label) echoed verbatim on the item's BatchResult. The item
	// sequence is consumed from the batch's producer goroutine, so a
	// tag is the race-free way to hand the consumer side per-item
	// metadata.
	Tag any
}

// BatchOf adapts a slice of instances to the item sequence SweepBatch
// consumes, with no per-instance overrides.
func BatchOf(instances ...*model.Instance) iter.Seq[BatchItem] {
	return func(yield func(BatchItem) bool) {
		for _, in := range instances {
			if !yield(BatchItem{Instance: in}) {
				return
			}
		}
	}
}

// BatchOfGraphs adapts a slice of task DAGs to the item sequence
// SweepBatch consumes, with no per-graph overrides.
func BatchOfGraphs(graphs ...*dag.Graph) iter.Seq[BatchItem] {
	return func(yield func(BatchItem) bool) {
		for _, g := range graphs {
			if !yield(BatchItem{Graph: g}) {
				return
			}
		}
	}
}

// BatchOfItems adapts prepared batch items — mixed kinds, overrides
// and tags intact — to the sequence SweepBatch consumes, yielding
// them in slice order.
func BatchOfItems(items ...BatchItem) iter.Seq[BatchItem] {
	return func(yield func(BatchItem) bool) {
		for _, item := range items {
			if !yield(item) {
				return
			}
		}
	}
}

// BatchConfig parameterizes SweepBatch. The embedded Config is the
// default sweep configuration of every instance (items may override it
// individually); its Workers field sizes the one pool shared by the
// whole batch.
type BatchConfig struct {
	Config

	// MaxPending bounds how many instances may be in flight — admitted
	// to the pool but not yet emitted — at once, which bounds the
	// batch's memory to O(MaxPending × runs per instance) however many
	// instances the sequence yields. 0 means 2× the worker count, so
	// the pool stays fed across instance boundaries.
	MaxPending int

	// Pool, when non-nil, is a resident worker pool (NewPool) shared
	// with other batches: this batch's jobs are submitted to it instead
	// of a private per-call pool, and the batch's effective worker
	// count is the pool's size (the Config.Workers field is ignored).
	// Output is byte-identical either way; what changes is that jobs of
	// concurrent batches interleave in one pool, so a long-running
	// service keeps its workers — and their warm scratch buffers —
	// across requests.
	Pool *Pool

	// Metrics, when non-nil, is the engine instrument bundle
	// (NewMetrics) the batch's jobs update as they queue, start and
	// finish. Instrumentation observes the job flow without touching
	// results: output bytes are identical with metrics on or off.
	Metrics *Metrics

	// Cache, when non-nil, is the content-addressed front cache the
	// batch consults at admission and writes back at emission: an item
	// whose key (canonical bytes + config fingerprint) is present skips
	// job generation entirely and its cached Result streams out in the
	// usual order. Cached Results reproduce the front artifacts exactly
	// — Bounds, every Run's provenance, objective value and error, and
	// the Front — but carry nil per-run witness payloads (Assignment,
	// SBO, RLS), which are too large to cache profitably; sweep summary
	// output is byte-identical either way, and BatchResult.CacheHit
	// tells the cases apart. A corrupt or undecodable entry is a miss —
	// the item is computed and the entry overwritten. The cache may be
	// shared across batches, goroutines and (via its disk tier) shard
	// processes.
	Cache *cache.Cache

	// Refine, when non-nil, plans a second sweep phase per item. Once
	// an item's jobs at its configured grid have all finished (or its
	// coarse Result came from the cache), Refine is called with that
	// coarse Result — graph marks task-DAG items — and returns the
	// item's refinement δ-grid. A non-empty grid re-sweeps the item at
	// those points against its already prepared state. The emitted
	// Result holds the coarse runs followed by the refined ones, its
	// Front assembled over both and its Bounds the coarse record. The
	// item counts against MaxPending until it is emitted, and results
	// still stream in item order. With a Cache, each phase is cached
	// under its own key: the coarse phase under the item's base
	// fingerprint, the refined phase under the fingerprint of its grid,
	// holding the refined runs alone. CacheHit is then set only when
	// every phase that ran was a hit. A planner error fails the item.
	// internal/refine sets this hook.
	Refine func(res *Result, graph bool) ([]float64, error)
}

// BatchResult is one instance's outcome. Results are delivered in
// instance order regardless of which workers ran the jobs.
type BatchResult struct {
	// Index is the zero-based position of the instance in the input
	// sequence.
	Index int

	// Result is the instance's sweep outcome, exactly what Sweep would
	// have returned for the same instance and config. Nil when Err is
	// non-nil.
	Result *Result

	// Err is a per-instance failure (an invalid instance or override,
	// or a source error carried by the item); the batch continues past
	// it to the remaining instances.
	Err error

	// Tag is the item's Tag, echoed verbatim.
	Tag any

	// CacheHit reports that Result was served from BatchConfig.Cache
	// instead of being computed.
	CacheHit bool
}

// batchJob is one (instance, grid point) evaluation in the shared pool.
type batchJob struct {
	st  *batchState
	idx int
}

// batchState is the in-flight record of one item: its effective
// config, deterministic job list, memoized prepared state (computed
// exactly once, by the first worker to touch the item) and the runs
// landing at their job indexes. Exactly one of in and g is non-nil for
// a sweepable item.
type batchState struct {
	index int
	in    *model.Instance
	g     *dag.Graph
	tag   any
	cfg   Config
	ctx   context.Context
	jobs  []job
	runs  []Run

	prepOnce  sync.Once
	prepSBO   *core.SBOPrepared
	prepRLS   *core.RLSPrepared
	prepGraph *core.RLSGraphPrepared
	bounds    bounds.Record
	err       error

	// cached is the decoded Result of a cache hit (the item ran no
	// jobs); key/writeBack route a computed Result back into the cache
	// at emission.
	cached    *Result
	key       cache.Key
	writeBack bool

	// The second phase (BatchConfig.Refine). next receives the item
	// when its coarse phase is done; it is nil when the batch does not
	// refine and once the item has been handed over. coarse is the
	// coarse-phase Result (see coarseResult), and split the number of
	// computed coarse runs in runs, the refined runs following them.
	// refined flags a planned second phase; refCached, refKey and
	// refWriteBack are its counterparts of cached, key and writeBack.
	next         chan<- *batchState
	coarse       *Result
	split        int
	refined      bool
	refCached    *Result
	refKey       cache.Key
	refWriteBack bool

	// met is the batch's instrument bundle (nil when uninstrumented);
	// prepared flags the memoized state as built, so later jobs of the
	// item count as memo hits.
	met      *Metrics
	prepared atomic.Bool

	remaining atomic.Int64
	skipped   atomic.Bool
	done      chan struct{}
}

// doPrepare runs prepare and flags the memoized state as built; it is
// the body handed to prepOnce.
func (st *batchState) doPrepare() {
	st.prepare()
	st.prepared.Store(true)
}

// prepare memoizes the per-item state shared by every run — for
// instances the SBO sub-schedules π1/π2, the RLS tie-break orders and
// the lower-bound record; for graphs the topological structure, tie
// ranks and the bounds.ForGraph record. It runs exactly once per item,
// inside the worker pool, so preparation of one item overlaps
// evaluation of another.
func (st *batchState) prepare() {
	if st.g != nil {
		if st.prepGraph, st.err = core.PrepareRLS(st.g, st.cfg.tieSet()...); st.err != nil {
			return
		}
		st.bounds, st.err = bounds.ForGraph(st.g)
		return
	}
	if !st.cfg.SkipSBO {
		algC, algM := st.cfg.AlgC, st.cfg.AlgM
		if algC == nil {
			algC = makespan.LPT{}
		}
		if algM == nil {
			algM = makespan.LPT{}
		}
		if st.prepSBO, st.err = core.PrepareSBO(st.in, algC, algM); st.err != nil {
			return
		}
	}
	if hasRLS(st.jobs) {
		if st.prepRLS, st.err = core.PrepareRLSIndependent(st.in, st.cfg.tieSet()...); st.err != nil {
			return
		}
	}
	st.bounds = bounds.ForInstance(st.in)
}

// executeJob runs one job of this item against the memoized prepared
// state. scr is the worker's reusable scratch, shared across every job
// the worker executes, so a warm sweep allocates only what escapes
// into the Run.
func (st *batchState) executeJob(idx int, scr *core.Scratch) Run {
	j := st.jobs[idx]
	run := Run{Algorithm: j.alg, Tie: j.tie, Delta: j.delta}
	switch {
	case j.alg == AlgSBO:
		if run.SBO, run.Err = st.prepSBO.RunScratch(j.delta, scr); run.Err == nil {
			run.Value = model.Value{Cmax: run.SBO.Cmax, Mmax: run.SBO.Mmax}
			run.Assignment = run.SBO.Assignment
		}
		return run
	case st.g != nil:
		run.RLS, run.Err = st.prepGraph.RunScratch(j.delta, j.tie, scr)
	default:
		run.RLS, run.Err = st.prepRLS.RunScratch(j.delta, j.tie, scr)
	}
	if run.Err == nil {
		run.Value = model.Value{Cmax: run.RLS.Cmax, Mmax: run.RLS.Mmax}
		run.Assignment = run.RLS.Schedule.Assignment()
	}
	return run
}

// run executes one job of a batch against its item's memoized
// prepared state, or skips it when the item's batch was cancelled.
// scr is the executing Pool worker's reusable scratch.
func (bj batchJob) run(scr *core.Scratch) {
	st := bj.st
	st.met.jobDequeued()
	select {
	case <-st.ctx.Done():
		// Count the job down but mark the instance skipped so a
		// partial result is never emitted.
		st.skipped.Store(true)
	default:
		already := st.prepared.Load()
		st.prepOnce.Do(st.doPrepare)
		if already {
			st.met.memoHit()
		}
		if st.err == nil {
			t0 := st.met.jobStart()
			st.runs[bj.idx] = st.executeJob(bj.idx, scr)
			st.met.jobEnd(t0)
		}
		if testHookAfterRun != nil {
			testHookAfterRun()
		}
	}
	if st.remaining.Add(-1) == 0 {
		st.phaseDone()
	}
}

// phaseDone ends the item's current phase. A finished coarse phase of
// a refining batch goes to the batch's refinement submitter; anything
// else completes the item. The hand-off never blocks: next is buffered
// to MaxPending, at most MaxPending items are in flight, and each is
// handed over at most once.
func (st *batchState) phaseDone() {
	if next := st.next; next != nil && st.err == nil && !st.skipped.Load() {
		st.next = nil
		next <- st
		return
	}
	close(st.done)
}

// submit hands the item's jobs [lo, hi) to the pool in order. It
// reports false when the batch is cancelled first. The caller reads hi
// before the first hand-off: once the last job is out, the item's
// second phase may append to jobs.
func (st *batchState) submit(jobs chan<- batchJob, lo, hi int) bool {
	for i := lo; i < hi; i++ {
		st.met.jobQueued()
		select {
		case jobs <- batchJob{st: st, idx: i}:
		case <-st.ctx.Done():
			st.met.jobUnqueued()
			return false
		}
	}
	return true
}

// refine runs the set-up of the item's second phase on the batch's
// refinement submitter. It plans the grid from the coarse Result,
// looks the refined phase up in the cache and, on a miss, appends the
// phase's jobs after the coarse ones and submits them. It reports
// false when the batch is cancelled during submission.
func (st *batchState) refine(plan func(*Result, bool) ([]float64, error), c *cache.Cache, jobs chan<- batchJob) bool {
	grid, err := plan(st.coarseResult(), st.g != nil)
	if err != nil || len(grid) == 0 {
		st.err = err
		close(st.done)
		return true
	}
	eff := st.cfg
	eff.Deltas = grid
	phase, err := buildJobs(eff, st.g != nil)
	if err == nil && st.prepared.Load() && st.g == nil && st.prepRLS == nil && hasRLS(phase) {
		// The coarse phase ran no RLS job, so it left the tie orders
		// unprepared.
		st.prepRLS, err = core.PrepareRLSIndependent(st.in, eff.tieSet()...)
	}
	if err != nil {
		st.err = fmt.Errorf("refine: refinement pass for item %d: %w", st.index, err)
		close(st.done)
		return true
	}
	st.refined = true
	if c != nil {
		st.refKey = itemKey(st, eff)
		if res, ok := cachedResult(c, st.refKey); ok {
			st.refCached = res
			close(st.done)
			return true
		}
		st.refWriteBack = true
	}
	st.split = len(st.runs)
	st.jobs = append(st.jobs, phase...)
	st.runs = append(st.runs, make([]Run, len(phase))...)
	st.remaining.Store(int64(len(phase)))
	return st.submit(jobs, st.split, len(st.jobs))
}

// coarseResult returns the item's coarse-phase Result, the cached one
// or one assembled from the computed runs, building it once. It must
// be called before a second phase appends to runs.
func (st *batchState) coarseResult() *Result {
	if st.coarse == nil {
		st.coarse = st.cached
		if st.coarse == nil {
			st.coarse = &Result{Bounds: st.bounds, Runs: st.runs, Front: AssembleFront(st.runs)}
		}
	}
	return st.coarse
}

// result assembles a completed item's Result from its phases, writing
// every computed phase back to c. hit reports that every phase was
// served from the cache.
func (st *batchState) result(c *cache.Cache) (res *Result, hit bool) {
	coarse := st.coarseResult()
	if st.writeBack {
		putResult(c, st.key, coarse)
	}
	if !st.refined {
		return coarse, st.cached != nil
	}
	refined := st.refCached
	if refined == nil {
		refined = &Result{Bounds: st.bounds, Runs: st.runs[st.split:]}
		if st.refWriteBack {
			refined.Front = AssembleFront(refined.Runs)
			putResult(c, st.refKey, refined)
		}
	}
	runs := slices.Concat(coarse.Runs, refined.Runs)
	return &Result{Bounds: coarse.Bounds, Runs: runs, Front: AssembleFront(runs)}, st.cached != nil && st.refCached != nil
}

// SweepBatch sweeps every instance of items through one shared worker
// pool and streams each instance's Result — identical to what Sweep
// would return for it — to emit, in instance order, as soon as it
// completes. emit is called sequentially from the calling goroutine;
// returning a non-nil error from it aborts the batch and SweepBatch
// returns that error.
//
// Jobs from different instances interleave freely in the pool, so the
// workers never idle at instance boundaries the way back-to-back Sweep
// calls do, and per-instance state is prepared exactly once, inside
// the pool. At most MaxPending instances are held in memory at a time:
// fronts for thousands of instances stream through in bounded space.
// With BatchConfig.Refine set, an item's refinement phase starts as
// soon as its own coarse jobs finish and reuses its prepared state, so
// refined fronts stream in the same bounded space.
//
// A per-instance failure (invalid instance, invalid override, or an
// item's source error) is delivered as BatchResult.Err and the batch
// continues. On context cancellation the remaining jobs are abandoned
// and SweepBatch returns ctx.Err().
//
// items is consumed from the batch's producer goroutine, concurrently
// with emit: a sequence that shares mutable state with the caller must
// synchronize, or carry per-item context in BatchItem.Tag instead.
func SweepBatch(ctx context.Context, items iter.Seq[BatchItem], cfg BatchConfig, emit func(BatchResult) error) error {
	if items == nil {
		return fmt.Errorf("engine: nil batch item sequence")
	}
	if emit == nil {
		return fmt.Errorf("engine: nil emit callback")
	}
	// Every batch runs on a Pool: the caller's resident one, or a
	// private one sized by Config.Workers and closed on return.
	pool := cfg.Pool
	if pool == nil {
		pool = NewPool(cfg.Workers)
		defer pool.Close()
	}
	workers := pool.Workers()
	pending := cfg.MaxPending
	if pending <= 0 {
		pending = 2 * workers
	}

	pctx, cancel := context.WithCancel(ctx)
	defer cancel()

	order := make(chan *batchState, pending)
	admit := make(chan struct{}, pending)

	// The batch's goroutines read these, not cfg: a closure capturing
	// the whole BatchConfig would move it to the heap.
	base, c, plan, met := cfg.Config, cfg.Cache, cfg.Refine, cfg.Metrics
	var wg sync.WaitGroup

	// Refinement submitter: items whose coarse phase is done arrive on
	// next (from a worker, or from the producer for a cached coarse
	// Result) and get their second phase planned and submitted here,
	// off the workers, which must never block.
	var next chan *batchState
	if plan != nil {
		next = make(chan *batchState, pending)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case st := <-next:
					if !st.refine(plan, c, pool.jobs) {
						return
					}
				case <-pctx.Done():
					return
				}
			}
		}()
	}

	// Producer: admit instances in input order, lay out their
	// deterministic job lists and feed the shared pool. The admit
	// semaphore (released by the emitter loop below) keeps at most
	// `pending` instances in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(order)
		index := 0
		for item := range items {
			st := &batchState{index: index, in: item.Instance, g: item.Graph, tag: item.Tag, ctx: pctx, met: met, next: next, done: make(chan struct{})}
			index++
			eff := base
			if item.Override != nil {
				eff = *item.Override
			}
			eff.Workers = workers
			st.cfg = eff
			switch {
			case item.Err != nil:
				st.err = item.Err
			case item.Instance == nil && item.Graph == nil:
				st.err = fmt.Errorf("engine: batch item %d has neither instance nor graph", st.index)
			case item.Instance != nil && item.Graph != nil:
				st.err = fmt.Errorf("engine: batch item %d has both instance and graph", st.index)
			default:
				jobs, err := buildJobs(eff, item.Graph != nil)
				if err != nil {
					st.err = err
					break
				}
				// Admission consults the cache before job generation: a
				// decodable hit makes the item jobless and its Result
				// streams out in the usual order. A miss (or a corrupt
				// entry) records the key for write-back at emission.
				if c != nil {
					st.key = itemKey(st, eff)
					if res, ok := cachedResult(c, st.key); ok {
						st.cached = res
						break
					}
					st.writeBack = true
				}
				st.jobs = jobs
				st.runs = make([]Run, len(jobs))
				st.remaining.Store(int64(len(jobs)))
			}
			select {
			case admit <- struct{}{}:
			case <-pctx.Done():
				return
			}
			select {
			case order <- st:
			case <-pctx.Done():
				return
			}
			if len(st.jobs) == 0 {
				// A failed or cached item has no coarse job to run.
				st.phaseDone()
			} else if !st.submit(pool.jobs, 0, len(st.jobs)) {
				return
			}
		}
	}()

	// Emit completed instances in admission order. A state whose jobs
	// were skipped (or never all enqueued) only occurs under
	// cancellation, which ctx.Err() reports below.
	var emitErr error
emitting:
	for st := range order {
		select {
		case <-st.done:
		case <-pctx.Done():
			// A completed instance takes precedence over simultaneous
			// cancellation so a fully swept front is never dropped.
			select {
			case <-st.done:
			default:
				break emitting
			}
		}
		if st.skipped.Load() {
			break emitting
		}
		br := BatchResult{Index: st.index, Err: st.err, Tag: st.tag}
		if st.err == nil {
			br.Result, br.CacheHit = st.result(c)
		}
		// Drop the prepared state before emitting: only the Result —
		// now owned by the caller — outlives this iteration.
		st.prepSBO, st.prepRLS, st.prepGraph = nil, nil, nil
		if err := emit(br); err != nil {
			emitErr = err
			break
		}
		<-admit
	}
	// Join the producer and the refinement submitter before returning:
	// a cancelled select unblocks them, and once SweepBatch has returned
	// no goroutine of this batch can still be submitting to the pool —
	// the guarantee Pool.Close's quiesce-first contract rests on, for
	// the private pool closed by the deferred Close as for a resident
	// one. Jobs of this batch still queued on a resident pool see the
	// cancelled context and skip, counting themselves down without
	// touching emitted state.
	cancel()
	wg.Wait()
	if emitErr != nil {
		return emitErr
	}
	return ctx.Err()
}
