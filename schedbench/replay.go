package main

// The traced replay. After the traced run's load phase, the first
// timed-stream bodies go through each layer's public functions one
// call at a time, with a span around every call: the serve decoder,
// cache keying, a serial core solve (prepare, every SBO/RLS run, front
// assembly, refinement planning) mirroring the engine's job layout, the
// FrontLine encoder, engine.SweepBatch (and refine.SweepBatchAdaptive
// when the workload refines), Session.Sweep, the cache's Put/Get on
// the engine's own cached blobs, and one HTTP round trip to a fresh
// daemon. The serial solve's bytes, Session.Sweep's bytes and the
// daemon's bytes must agree. The replay runs twice — untraced, then
// traced — and the ratio of the two wall times is the tracing overhead.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"storagesched/internal/bounds"
	"storagesched/internal/cache"
	"storagesched/internal/core"
	"storagesched/internal/dag"
	"storagesched/internal/engine"
	"storagesched/internal/makespan"
	"storagesched/internal/metrics"
	"storagesched/internal/model"
	"storagesched/internal/refine"
	"storagesched/internal/serve"
)

// replayOut is what one replay pass measured outside the spans.
type replayOut struct {
	wall          time.Duration // the per-request loop, set-up excluded
	items         int
	firstEmits    []float64 // ms from the SweepBatch call to its first emit
	emitGaps      []float64 // ms between consecutive emits
	allocBytes    uint64    // TotalAlloc over the SweepBatch calls
	httpOverheads []float64 // ms: round trip minus the server's Session.Sweep
	pass2Items    int
	extraRuns     int
}

// replayer holds one pass's fixtures.
type replayer struct {
	b     *bench
	tr    *tracer
	spec  serve.SweepSpec
	rcfg  refine.Config
	bcfg  engine.BatchConfig
	sess  *serve.Session
	st    *stack
	cl    *client
	scr   *core.Scratch
	fp    string
	out   replayOut
	graph bool // the workload sends DAG items
}

// traced computes the per-layer metrics: counts from the load phase's
// /metrics scrapes and blob-store counters, the rest from the replay.
func (b *bench) traced(lp *loadPhase, timed *generator, tr *tracer) (map[string]float64, error) {
	v := map[string]float64{}
	items := float64(b.timed.good)
	d := func(name string) float64 { return delta(lp.before, lp.after, name) }
	jobs := d("sched_engine_jobs_total")
	v["engine.jobs_per_item"] = ratio(jobs, items)
	v["engine.job_ms_mean"] = 1e3 * ratio(d("sched_engine_job_seconds_sum"), d("sched_engine_job_seconds_count"))
	v["engine.memo_hit_frac"] = ratio(d("sched_engine_prepared_memo_hits_total"), jobs)
	lookups := d("sched_cache_hits_total") + d("sched_cache_misses_total")
	v["cache.hit_frac"] = ratio(d("sched_cache_hits_total"), lookups)
	v["cache.mem_hit_frac"] = ratio(d("sched_cache_mem_hits_total"), lookups)
	v["cache.write_errors"] = d("sched_cache_write_errors_total")
	v["cache.blob_gets"] = ratio(float64(lp.blobGets), items)
	v["cache.blob_puts"] = ratio(float64(lp.blobPuts), items)
	v["serve.admission_wait_ms_mean"] = 1e3 * ratio(d("sched_admission_wait_seconds_sum"), d("sched_admission_wait_seconds_count"))
	v["serve.refusals"] = d("sched_refusals_total")
	v["runtime.gc_cpu_frac"] = ratio(lp.gcCPU, lp.usedCPU)

	var reqs []request
	for r := range b.w.replayRequests {
		reqs = append(reqs, timed.request(r))
	}
	plain, err := b.replay(timed, reqs, nil)
	if err != nil {
		return nil, err
	}
	out, err := b.replay(timed, reqs, tr)
	if err != nil {
		return nil, err
	}
	v["trace.overhead_frac"] = ratio(float64(out.wall), float64(plain.wall)) - 1

	S := tr.stats()
	get := func(name string) spanStats {
		if s := S[name]; s != nil {
			return *s
		}
		return spanStats{}
	}
	n := float64(out.items)
	perItem := func(d time.Duration) float64 { return ratio(us(d), n) }
	prep := get("core.prepare").total
	solve := get("core.sbo_run").total + get("core.rls_run").total + get("core.rls_dag_run").total
	asm := get("engine.AssembleFront").total
	v["core.prepare_us_per_item"] = perItem(prep)
	v["core.prepare_frac"] = ratio(float64(prep), float64(prep+solve+asm))
	v["core.sbo_run_us"] = get("core.sbo_run").meanUs()
	v["core.rls_run_us"] = get("core.rls_run").meanUs()
	v["core.rls_dag_run_us"] = get("core.rls_dag_run").meanUs()
	if get("core.rls_dag_run").count == 0 {
		v["core.rls_dag_run_us"] = get("core.rls_dag_run.edge_free").meanUs()
	}
	v["engine.batch_us_per_item"] = perItem(get("engine.SweepBatch").self)
	v["engine.first_emit_ms"] = median(out.firstEmits)
	v["engine.emit_gap_ms_p90"] = percentile(out.emitGaps, 0.9)
	v["engine.assemble_us_per_item"] = perItem(asm)
	v["engine.alloc_kb_per_item"] = ratio(float64(out.allocBytes)/1024, n)
	v["cache.key_us_per_item"] = perItem(get("cache.key").total)
	v["cache.get_us"] = get("cache.Get").meanUs()
	if put := get("cache.Put"); put.count > 0 {
		v["cache.put_us"] = us(put.self) / float64(put.count)
	}
	v["cache.decode_us_per_hit"] = get("engine.CheckCachedResult").meanUs()
	v["cache.blob_get_us"] = get("blob.Get").meanUs()
	v["cache.blob_put_us"] = get("blob.Put").meanUs()
	v["refine.grid_us_per_item"] = perItem(get("refine.Grid").total)
	v["refine.pass2_frac"] = ratio(float64(out.pass2Items), n)
	v["refine.extra_runs_per_item"] = ratio(float64(out.extraRuns), n)
	v["serve.decode_us_per_item"] = perItem(get("serve.DecodeItems").total)
	v["serve.encode_us_per_item"] = perItem(get("serve.encode").total)
	base := get("engine.SweepBatch").total
	if b.w.sweep.refine {
		base = get("refine.SweepBatchAdaptive").total
	}
	v["serve.session_overhead_us_per_item"] = perItem(get("serve.Session.Sweep").total - base)
	v["serve.http_overhead_ms_p50"] = median(out.httpOverheads)
	return v, nil
}

// replay runs one pass over reqs; tr is nil for the untraced pass.
func (b *bench) replay(timed *generator, reqs []request, tr *tracer) (*replayOut, error) {
	spec, err := b.w.sweep.spec()
	if err != nil {
		return nil, err
	}
	workers := runtime.NumCPU()
	pool := engine.NewPool(workers)
	defer pool.Close()
	rp := &replayer{
		b:    b,
		tr:   tr,
		spec: spec,
		rcfg: b.w.sweep.refineConfig(),
		bcfg: engine.BatchConfig{
			Config:  engine.Config{Deltas: spec.Deltas, Workers: workers},
			Pool:    pool,
			Metrics: engine.NewMetrics(metrics.NewRegistry()),
		},
		sess: serve.NewSession(serve.SessionConfig{Workers: workers, Resident: true, Metrics: metrics.NewRegistry()}),
		scr:  core.NewScratch(),
		fp:   b.w.sweep.query(),
	}
	defer rp.sess.Close()
	for _, req := range reqs {
		for _, it := range req.items {
			rp.graph = rp.graph || it.graph
		}
	}

	// A fresh daemon for the HTTP round trips, in the workload's
	// steady state: warm_repeat's pool pre-filled.
	if rp.st, err = startStack(b.w, b.dir); err != nil {
		return nil, err
	}
	cs := newClients(rp.st, b.w)
	defer stop(rp.st, cs)
	rp.cl = cs[0]
	if timed.pool != nil {
		for _, f := range fetchAll(cs, timed.poolRequests()) {
			if !f.ex.ok() {
				return nil, fmt.Errorf("replay pre-fill: status %d %s", f.ex.status, f.ex.err)
			}
		}
	}

	t0 := time.Now()
	for q, req := range reqs {
		if err := rp.request(q, req); err != nil {
			return nil, err
		}
	}
	rp.out.wall = time.Since(t0)
	return &rp.out, nil
}

// request replays one body through every layer.
func (rp *replayer) request(q int, req request) error {
	tr := rp.tr
	top := tr.begin("replay.request", -1, q)
	defer tr.end(top)
	ctx := context.Background()

	// serve: decode the body.
	sp := tr.begin("serve.DecodeItems", top, q)
	var items []engine.BatchItem
	var sources []string
	for item, source := range serve.DecodeItems("body", bytes.NewReader(req.body), nil) {
		items = append(items, item)
		sources = append(sources, source)
	}
	tr.end(sp)
	for i, it := range items {
		if it.Err != nil {
			return fmt.Errorf("replay item %d: %w", i, it.Err)
		}
	}
	rp.out.items += len(items)

	// cache: content keys.
	for _, it := range items {
		sp := tr.begin("cache.key", top, q)
		var canonical []byte
		if it.Graph != nil {
			canonical = cache.CanonicalGraph(it.Graph)
		} else {
			canonical = cache.CanonicalInstance(it.Instance)
		}
		cache.KeyFor(canonical, rp.fp)
		tr.end(sp)
	}

	// core, engine assembly, refine planning: one serial solve per
	// item; then the serve encoder over the results.
	results := make([]*engine.Result, len(items))
	for i, it := range items {
		res, err := rp.solve(it, top, q)
		if err != nil {
			return fmt.Errorf("replay item %d: %w", i, err)
		}
		results[i] = res
	}
	var serial bytes.Buffer
	enc := json.NewEncoder(&serial)
	for i, it := range items {
		sp := tr.begin("serve.encode", top, q)
		err := enc.Encode(frontLine(sources[i], i, it, results[i]))
		tr.end(sp)
		if err != nil {
			return err
		}
	}

	// engine: the batch over the decoded items, emits timed.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sb := tr.begin("engine.SweepBatch", top, q)
	call := time.Now()
	last, emitted := call, false
	err := engine.SweepBatch(ctx, engine.BatchOfItems(items...), rp.bcfg, func(br engine.BatchResult) error {
		now := time.Now()
		if emitted {
			rp.out.emitGaps = append(rp.out.emitGaps, ms(now.Sub(last)))
		} else {
			rp.out.firstEmits = append(rp.out.firstEmits, ms(now.Sub(call)))
		}
		last, emitted = now, true
		tr.add("engine.emit", now, now, sb, q)
		return br.Err
	})
	tr.end(sb)
	runtime.ReadMemStats(&ms1)
	rp.out.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
	if err != nil {
		return fmt.Errorf("engine.SweepBatch: %w", err)
	}
	if rp.spec.Refine {
		sp := tr.begin("refine.SweepBatchAdaptive", top, q)
		err := refine.SweepBatchAdaptive(ctx, engine.BatchOfItems(items...), rp.bcfg, rp.rcfg, func(br engine.BatchResult) error { return br.Err })
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("refine.SweepBatchAdaptive: %w", err)
		}
	}

	// serve: the session over the same body and sweep.
	var viaSession bytes.Buffer
	sp = tr.begin("serve.Session.Sweep", top, q)
	_, err = rp.sess.Sweep(ctx, serve.DecodeItems("body", bytes.NewReader(req.body), nil), rp.spec, &viaSession)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("Session.Sweep: %w", err)
	}
	if !bytes.Equal(viaSession.Bytes(), serial.Bytes()) {
		rp.b.aux.problem("replay request %d: Session.Sweep bytes differ from the serial layer replay", q)
	}

	if err := rp.cacheOps(ctx, items, top, q); err != nil {
		return err
	}

	// HTTP: one round trip; the server's own Session.Sweep time comes
	// from the sweep histogram's sum.
	m0, err := fetchMetrics(rp.st.url)
	if err != nil {
		return err
	}
	ex, body := rp.cl.fetch(req.body)
	m1, err := fetchMetrics(rp.st.url)
	if err != nil {
		return err
	}
	ex.r = q
	rt := tr.add("client.request", ex.sent, ex.done, top, q)
	tr.add("client.first_byte", ex.sent, ex.firstByte, rt, q)
	tr.add("client.first_line", ex.firstByte, ex.firstLine, rt, q)
	tr.add("client.trailers", ex.firstLine, ex.done, rt, q)
	rp.out.httpOverheads = append(rp.out.httpOverheads, ms(ex.rtt())-1e3*delta(m0, m1, "sched_sweep_seconds_sum"))
	rp.b.aux.checkExchange("replay", &ex, req, body, nil)
	if !bytes.Equal(body, serial.Bytes()) {
		rp.b.aux.problem("replay request %d: daemon bytes differ from the serial layer replay", q)
	}
	return nil
}

// solve runs one item serially on the worker scratch, laid out as the
// engine lays out its jobs: grid-major, SBO then the RLS tie-breaks at
// each δ, the front assembled over all runs; when the workload refines,
// a second prepared pass over the planned grid, merged after the
// coarse runs as refine.SweepBatchAdaptive merges them.
func (rp *replayer) solve(it engine.BatchItem, parent, q int) (*engine.Result, error) {
	tr := rp.tr
	item := tr.begin("core.item", parent, q)
	defer tr.end(item)
	graph := it.Graph != nil

	res := &engine.Result{}
	runs, rec, err := rp.pass(it, rp.spec.Deltas, item, q)
	if err != nil {
		return nil, err
	}
	res.Bounds, res.Runs = rec, runs
	sp := tr.begin("engine.AssembleFront", item, q)
	res.Front = engine.AssembleFront(runs)
	tr.end(sp)

	sp = tr.begin("refine.Grid", item, q)
	grid, err := refine.Grid(res, graph, rp.rcfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if rp.spec.Refine && len(grid) > 0 {
		extra, _, err := rp.pass(it, grid, item, q)
		if err != nil {
			return nil, err
		}
		rp.out.pass2Items++
		rp.out.extraRuns += len(extra)
		res.Runs = append(append([]engine.Run(nil), runs...), extra...)
		sp = tr.begin("engine.AssembleFront", item, q)
		res.Front = engine.AssembleFront(res.Runs)
		tr.end(sp)
	}

	// The DAG kernel has no item to run on in a workload without DAGs;
	// time it on the instance as an edge-free graph instead.
	if !graph && !rp.graph {
		if err := rp.edgeFreeDAG(it.Instance, item, q); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// pass prepares the item and runs every job of the grid.
func (rp *replayer) pass(it engine.BatchItem, deltas []float64, parent, q int) ([]engine.Run, bounds.Record, error) {
	tr := rp.tr
	hasRLS := false
	for _, d := range deltas {
		hasRLS = hasRLS || d >= 2
	}
	var (
		rec   bounds.Record
		prepS *core.SBOPrepared
		prepR *core.RLSPrepared
		prepG *core.RLSGraphPrepared
		err   error
	)
	sp := tr.begin("core.prepare", parent, q)
	if it.Graph != nil {
		if prepG, err = core.PrepareRLS(it.Graph, engine.DefaultTies...); err == nil {
			rec, err = bounds.ForGraph(it.Graph)
		}
	} else {
		prepS, err = core.PrepareSBO(it.Instance, makespan.LPT{}, makespan.LPT{})
		if err == nil && hasRLS {
			prepR, err = core.PrepareRLSIndependent(it.Instance, engine.DefaultTies...)
		}
		rec = bounds.ForInstance(it.Instance)
	}
	tr.end(sp)
	if err != nil {
		return nil, rec, err
	}

	var runs []engine.Run
	for _, d := range deltas {
		if prepS != nil {
			run := engine.Run{Algorithm: engine.AlgSBO, Delta: d}
			sp := tr.begin("core.sbo_run", parent, q)
			r, err := prepS.RunScratch(d, rp.scr)
			tr.end(sp)
			if err != nil {
				run.Err = err
			} else {
				run.Value.Cmax, run.Value.Mmax = r.Cmax, r.Mmax
			}
			runs = append(runs, run)
		}
		if d < 2 {
			continue
		}
		for _, tie := range engine.DefaultTies {
			run := engine.Run{Algorithm: engine.AlgRLS, Tie: tie, Delta: d}
			var r *core.RLSResult
			var err error
			if prepG != nil {
				sp := tr.begin("core.rls_dag_run", parent, q)
				r, err = prepG.RunScratch(d, tie, rp.scr)
				tr.end(sp)
			} else {
				sp := tr.begin("core.rls_run", parent, q)
				r, err = prepR.RunScratch(d, tie, rp.scr)
				tr.end(sp)
			}
			if err != nil {
				run.Err = err
			} else {
				run.Value.Cmax, run.Value.Mmax = r.Cmax, r.Mmax
			}
			runs = append(runs, run)
		}
	}
	return runs, rec, nil
}

// edgeFreeDAG times the DAG RLS kernel on the instance's edge-free
// graph at the grid's first δ ≥ 2, once per tie-break.
func (rp *replayer) edgeFreeDAG(in *model.Instance, parent, q int) error {
	d := 0.0
	for _, x := range rp.spec.Deltas {
		if x >= 2 {
			d = x
			break
		}
	}
	if d == 0 {
		return nil
	}
	prep, err := core.PrepareRLS(dag.FromInstance(in), engine.DefaultTies...)
	if err != nil {
		return err
	}
	for _, tie := range engine.DefaultTies {
		sp := rp.tr.begin("core.rls_dag_run.edge_free", parent, q)
		_, err := prep.RunScratch(d, tie, rp.scr)
		rp.tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// cacheOps captures the blobs the engine writes for these items, then
// times the cache layer on them: Put into a two-tier cache, Get from
// its memory tier, Get from its disk tier, and the cached-result
// decoder.
func (rp *replayer) cacheOps(ctx context.Context, items []engine.BatchItem, parent, q int) error {
	tr := rp.tr
	capDir, err := os.MkdirTemp(rp.b.dir, "capture-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(capDir)
	capStore, err := cache.NewDirStore(capDir)
	if err != nil {
		return err
	}
	capCache, err := cache.New(cache.Config{MemEntries: -1, Store: capStore})
	if err != nil {
		return err
	}
	cfg := rp.bcfg
	cfg.Cache = capCache
	cfg.Metrics = nil
	sp := tr.begin("cache.capture", parent, q)
	err = engine.SweepBatch(ctx, engine.BatchOfItems(items...), cfg, func(br engine.BatchResult) error { return br.Err })
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("capture sweep: %w", err)
	}
	infos, err := capStore.List()
	if err != nil {
		return err
	}
	type blob struct {
		key cache.Key
		val []byte
	}
	var blobs []blob
	for _, info := range infos {
		if val, ok := capStore.Get(info.Key); ok {
			blobs = append(blobs, blob{info.Key, val})
		}
	}
	if len(blobs) == 0 {
		return fmt.Errorf("capture sweep stored no blobs")
	}

	dir, err := os.MkdirTemp(rp.b.dir, "cacheops-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ds, err := cache.NewDirStore(dir)
	if err != nil {
		return err
	}
	ts := newTimingStore(ds)
	ts.tr.Store(tr)
	twoTier, err := cache.New(cache.Config{Store: ts})
	if err != nil {
		return err
	}
	diskOnly, err := cache.New(cache.Config{MemEntries: -1, Store: ts})
	if err != nil {
		return err
	}
	for _, bl := range blobs {
		id, prev := tr.enter("cache.Put", parent, q)
		twoTier.Put(bl.key, bl.val)
		tr.leave(id, prev)
	}
	for _, bl := range blobs {
		sp := tr.begin("cache.Get", parent, q)
		_, ok := twoTier.Get(bl.key)
		tr.end(sp)
		id, prev := tr.enter("cache.Get.disk", parent, q)
		_, okDisk := diskOnly.Get(bl.key)
		tr.leave(id, prev)
		if !ok || !okDisk {
			rp.b.aux.problem("replay request %d: a stored blob missed (memory %v, disk %v)", q, ok, okDisk)
		}
		sp = tr.begin("engine.CheckCachedResult", parent, q)
		err := engine.CheckCachedResult(bl.val)
		tr.end(sp)
		if err != nil {
			rp.b.aux.problem("replay request %d: cached blob does not decode: %v", q, err)
		}
	}
	return nil
}

// frontLine renders a result as the daemon's JSONL line for the item.
func frontLine(source string, index int, it engine.BatchItem, res *engine.Result) serve.FrontLine {
	line := serve.FrontLine{Source: source, Index: index}
	if it.Graph != nil {
		line.N, line.M, line.Edges = it.Graph.N(), it.Graph.M, it.Graph.NumEdges()
	} else {
		line.N, line.M = it.Instance.N(), it.Instance.M
	}
	line.CmaxLB, line.MmaxLB = res.Bounds.CmaxLB, res.Bounds.MmaxLB
	line.Runs = len(res.Runs)
	line.Front = make([]serve.FrontLinePoint, len(res.Front))
	for i, p := range res.Front {
		line.Front[i] = serve.FrontLinePoint{Cmax: p.Value.Cmax, Mmax: p.Value.Mmax, Witness: res.Runs[p.RunIndex].Label()}
	}
	return line
}
