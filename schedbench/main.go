// Command schedbench is the repository's end-to-end benchmark. It
// drives an in-process schedd — wired as cmd/schedd wires it — with
// closed-loop HTTP load from two keep-alive clients, checks every
// streamed front line after the clock stops, and prints the workload's
// metrics; with --trace 1 it instead replays the same inputs through
// each layer's public functions and prints the per-layer metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash schedbench/run.sh --workload corpus_cold --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md describes the
// workloads, the metrics and what each layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"items_per_s", "items/s", "higher"},
	{"req_p50_ms", "ms", "lower"},
	{"req_p90_ms", "ms", "lower"},
	{"first_line_p50_ms", "ms", "lower"},
	{"cpu_ms_per_item", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics of a traced run, in BENCHMARK.json order.
var perLayer = []metricDef{
	{"core.prepare_us_per_item", "us", "lower"},
	{"core.prepare_frac", "ratio", "lower"},
	{"core.sbo_run_us", "us", "lower"},
	{"core.rls_run_us", "us", "lower"},
	{"core.rls_dag_run_us", "us", "lower"},
	{"engine.batch_us_per_item", "us", "lower"},
	{"engine.first_emit_ms", "ms", "lower"},
	{"engine.emit_gap_ms_p90", "ms", "lower"},
	{"engine.assemble_us_per_item", "us", "lower"},
	{"engine.alloc_kb_per_item", "KiB", "lower"},
	{"engine.jobs_per_item", "count", "lower"},
	{"engine.job_ms_mean", "ms", "lower"},
	{"engine.memo_hit_frac", "ratio", "higher"},
	{"cache.hit_frac", "ratio", "higher"},
	{"cache.mem_hit_frac", "ratio", "higher"},
	{"cache.write_errors", "count", "lower"},
	{"cache.key_us_per_item", "us", "lower"},
	{"cache.get_us", "us", "lower"},
	{"cache.put_us", "us", "lower"},
	{"cache.decode_us_per_hit", "us", "lower"},
	{"cache.blob_get_us", "us", "lower"},
	{"cache.blob_put_us", "us", "lower"},
	{"cache.blob_gets", "count/item", "lower"},
	{"cache.blob_puts", "count/item", "lower"},
	{"refine.grid_us_per_item", "us", "lower"},
	{"refine.pass2_frac", "ratio", "lower"},
	{"refine.extra_runs_per_item", "count", "lower"},
	{"serve.decode_us_per_item", "us", "lower"},
	{"serve.encode_us_per_item", "us", "lower"},
	{"serve.session_overhead_us_per_item", "us", "lower"},
	{"serve.http_overhead_ms_p50", "ms", "lower"},
	{"serve.admission_wait_ms_mean", "ms", "lower"},
	{"serve.refusals", "count", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// Set-up repetitions: the untraced run sets up several times and
// reports the median; the last stack set up serves the timed phase.
const (
	setupRepeats   = 7
	warmupRequests = 2 // per client
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("schedbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wname := fs.String("workload", "", "workload: corpus_cold, dense_refine or warm_repeat")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "length of the timed phase in seconds")
	traceOn := fs.Int("trace", 0, "1 replays the inputs through each layer and prints the per-layer metrics")
	root := fs.String("root", ".", "repository checkout; scratch files go to <root>/.bench_build")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*wname)
	if err != nil || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(stderr, "schedbench: need --workload (corpus_cold|dense_refine|warm_repeat), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	b := &bench{w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second, stderr: stderr,
		scratch: filepath.Join(*root, ".bench_build")}
	b.stdout = stdout
	res, err := b.run(*traceOn == 1)
	if err != nil {
		fmt.Fprintf(stderr, "schedbench: %s: %v\n", w.name, err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "schedbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is one invocation.
type bench struct {
	w       *workload
	seed    int64
	dur     time.Duration
	stdout  io.Writer
	stderr  io.Writer
	scratch string // <root>/.bench_build
	dir     string // this run's temporary directory, removed at exit

	// timed tallies the timed phase; aux tallies every other checked
	// response (pre-fill, warm-up, digest slice, replay).
	timed, aux tally
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.stderr, "schedbench: %s: "+format+"\n", append([]any{b.w.name}, args...)...)
}

// run performs the whole invocation and returns its result line.
func (b *bench) run(traced bool) (*result, error) {
	if err := os.MkdirAll(filepath.Join(b.scratch, "tmp"), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(b.scratch, "tmp"), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b.dir = dir

	// Inputs first: set-up time excludes generating them.
	timed := b.w.gen(b.seed, streamTimed)
	warm := b.w.gen(warmupSeed, streamWarmup)
	if timed.pool != nil {
		// The warm-up draws on the pool the set-up pre-fills.
		warm.pool = timed.pool
	}
	check := b.w.gen(checkSeed, streamCheck)

	repeats := setupRepeats
	if traced {
		repeats = 1
	}
	var setups []float64
	var st *stack
	var cs []*client
	var cold coldLines
	for i := range repeats {
		if st != nil {
			if err := stop(st, cs); err != nil {
				return nil, err
			}
			st = nil
		}
		t0 := time.Now()
		st, cs, cold, err = b.setUp(timed, warm)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		if st != nil {
			stop(st, cs)
		}
	}()
	b.logf("set-up times (s): %.3f", setups)

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	lp, err := b.load(st, cs, timed, tr)
	if err != nil {
		return nil, err
	}
	defer lp.close()

	// After the clock: check every response of the timed phase, the
	// daemon's counters, then the digest slice.
	for i, exs := range lp.ph.exchanges {
		for _, ex := range exs {
			body, err := lp.spills[i].read(ex)
			if err != nil {
				return nil, err
			}
			b.timed.checkExchange("timed", ex, timed.request(ex.r), body, cold)
		}
	}
	b.checkCounters(lp)
	if err := b.checkDigest(cs[0], check); err != nil {
		return nil, err
	}
	err = stop(st, cs)
	st = nil
	if err != nil {
		return nil, err
	}

	defs, values := endToEnd, map[string]float64(nil)
	if traced {
		defs = perLayer
		if values, err = b.traced(lp, timed, tr); err != nil {
			return nil, err
		}
		path := filepath.Join(b.scratch, "trace-"+b.w.name+".jsonl")
		if err := tr.write(path); err != nil {
			return nil, err
		}
		b.logf("wrote %d spans to %s", len(tr.spans), path)
	} else {
		values = lp.endToEnd(b.timed.good, setups)
	}

	res := &result{
		Attempted: b.timed.attempted,
		Failed:    b.timed.failed + b.aux.failed,
		Metrics:   map[string]metricValue{},
	}
	problems := append(b.timed.problems, b.aux.problems...)
	res.Correct = res.Failed == 0 && len(problems) == 0
	for _, p := range problems {
		b.logf("check failed: %s", p)
	}
	b.printSummary(lp, res, values, defs)
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return res, nil
}

// stop closes the clients' connections and drains the daemon.
func stop(st *stack, cs []*client) error {
	closeClients(cs)
	return st.close()
}

// setUp builds and warms one daemon: the front cache, session and
// server, warm_repeat's pool pre-fill, and a few requests per client.
// It returns warm_repeat's cold lines, the reference every later line
// of a pool item must equal.
func (b *bench) setUp(timed, warm *generator) (*stack, []*client, coldLines, error) {
	st, err := startStack(b.w, b.dir)
	if err != nil {
		return nil, nil, nil, err
	}
	cs := newClients(st, b.w)
	var cold coldLines
	if timed.pool != nil {
		cold = coldLines{}
		reqs := timed.poolRequests()
		for q, f := range fetchAll(cs, reqs) {
			b.aux.checkExchange("pre-fill", &f.ex, reqs[q], f.body, nil)
			cold.record(reqs[q], f.body)
		}
	}
	reqs := make([]request, len(cs)*warmupRequests)
	for r := range reqs {
		reqs[r] = warm.request(r)
	}
	for r, f := range fetchAll(cs, reqs) {
		b.aux.checkExchange("warm-up", &f.ex, reqs[r], f.body, cold)
	}
	return st, cs, cold, nil
}

// loadPhase is the measured part of a run.
type loadPhase struct {
	ph             phase
	spills         []*spill
	before, after  scrape
	peakRSS        int64
	gcCPU, usedCPU float64
	blobGets       int64
	blobPuts       int64
}

func (lp *loadPhase) close() {
	for _, sp := range lp.spills {
		sp.close()
	}
}

// load runs the timed phase with its surrounding measurements.
func (b *bench) load(st *stack, cs []*client, timed *generator, tr *tracer) (*loadPhase, error) {
	lp := &loadPhase{}
	for i := range cs {
		sp, err := newSpill(b.dir, i)
		if err != nil {
			lp.close()
			return nil, err
		}
		lp.spills = append(lp.spills, sp)
	}
	var err error
	if lp.before, err = fetchMetrics(st.url); err != nil {
		lp.close()
		return nil, err
	}
	gets0, puts0 := storeCounts(st.store)
	runtime.GC()
	gc0, used0 := gcCPU()

	lp.ph = runTimed(cs, timed, lp.spills, b.dur, tr)

	_, rss, err := cpuTime()
	if err != nil {
		lp.close()
		return nil, err
	}
	gc1, used1 := gcCPU()
	lp.peakRSS = rss
	lp.gcCPU, lp.usedCPU = gc1-gc0, used1-used0
	gets1, puts1 := storeCounts(st.store)
	lp.blobGets, lp.blobPuts = gets1-gets0, puts1-puts0
	if lp.after, err = fetchMetrics(st.url); err != nil {
		lp.close()
		return nil, err
	}
	for _, sp := range lp.spills {
		if err := sp.finish(); err != nil {
			lp.close()
			return nil, err
		}
	}
	if lp.requests() == 0 {
		lp.close()
		return nil, errors.New("the timed phase completed no request")
	}
	return lp, nil
}

func storeCounts(s *timingStore) (gets, puts int64) {
	if s == nil {
		return 0, 0
	}
	return s.gets.Load(), s.puts.Load()
}
