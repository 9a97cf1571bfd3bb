package engine

import (
	"context"
	"fmt"
	"iter"
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
// them in slice order. Unlike a streaming producer, the slice can be
// replayed, which is what the adaptive refinement pipeline's second
// pass needs.
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
		ties := st.cfg.Ties
		if ties == nil {
			ties = DefaultTies
		}
		if st.prepGraph, st.err = core.PrepareRLS(st.g, ties...); st.err != nil {
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
		ties := st.cfg.Ties
		if ties == nil {
			ties = DefaultTies
		}
		if st.prepRLS, st.err = core.PrepareRLSIndependent(st.in, ties...); st.err != nil {
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
		close(st.done)
	}
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

	// Producer: admit instances in input order, lay out their
	// deterministic job lists and feed the shared pool. The admit
	// semaphore (released by the emitter loop below) keeps at most
	// `pending` instances in flight.
	prodDone := make(chan struct{})
	go func() {
		defer close(prodDone)
		defer close(order)
		index := 0
		for item := range items {
			st := &batchState{index: index, in: item.Instance, g: item.Graph, tag: item.Tag, ctx: pctx, met: cfg.Metrics, done: make(chan struct{})}
			index++
			eff := cfg.Config
			if item.Override != nil {
				eff = *item.Override
			}
			eff.Workers = workers
			st.cfg = eff
			switch {
			case item.Err != nil:
				st.err = item.Err
				close(st.done)
			case item.Instance == nil && item.Graph == nil:
				st.err = fmt.Errorf("engine: batch item %d has neither instance nor graph", st.index)
				close(st.done)
			case item.Instance != nil && item.Graph != nil:
				st.err = fmt.Errorf("engine: batch item %d has both instance and graph", st.index)
				close(st.done)
			default:
				jobs, err := buildJobs(eff, item.Graph != nil)
				if err != nil {
					st.err = err
					close(st.done)
					break
				}
				// Admission consults the cache before job generation: a
				// decodable hit makes the item jobless and its Result
				// streams out in the usual order. A miss (or a corrupt
				// entry) records the key for write-back at emission.
				if cfg.Cache != nil {
					st.key = itemKey(st)
					if data, ok := cfg.Cache.Get(st.key); ok {
						if res, derr := decodeResult(data); derr == nil {
							st.cached = res
							close(st.done)
							break
						}
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
			for i := range st.jobs {
				st.met.jobQueued()
				select {
				case pool.jobs <- batchJob{st: st, idx: i}:
				case <-pctx.Done():
					st.met.jobUnqueued()
					return
				}
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
		switch {
		case st.cached != nil:
			br.Result = st.cached
			br.CacheHit = true
		case st.err == nil:
			br.Result = &Result{Bounds: st.bounds, Runs: st.runs, Front: AssembleFront(st.runs)}
			if st.writeBack {
				if data, eerr := encodeResult(br.Result); eerr == nil {
					cfg.Cache.Put(st.key, data)
				}
			}
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
	// Join the producer before returning: a cancelled select unblocks it,
	// and once SweepBatch has returned no goroutine of this batch can
	// still be submitting to the pool — the guarantee Pool.Close's
	// quiesce-first contract rests on, for the private pool closed by
	// the deferred Close as for a resident one. Jobs of this batch still
	// queued on a resident pool see the cancelled context and skip,
	// counting themselves down without touching emitted state.
	cancel()
	<-prodDone
	if emitErr != nil {
		return emitErr
	}
	return ctx.Err()
}
