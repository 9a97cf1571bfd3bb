// Command schedcli schedules a JSON instance with a chosen algorithm
// and prints the objectives and an ASCII Gantt chart.
//
//	schedcli -alg sbo -delta 1 < instance.json
//	schedcli -in instance.json -alg rls -delta 3 -tie spt
//	schedcli -in instance.json -alg constrained -budget 120
//
// The sweep subcommand runs the parallel δ-sweep engine and prints the
// approximate Pareto front with per-point provenance:
//
//	schedcli sweep -in instance.json -dmin 0.25 -dmax 8 -points 32
//
// The sweepbatch subcommand sweeps many instances through one shared
// worker pool and writes one JSON front per line (JSONL), streaming in
// input order with bounded memory. -in accepts a directory of *.json
// instances, a .jsonl file with one instance per line, or a single
// .json file; with no -in it reads a stream of JSON documents from
// stdin (compact JSONL or indented, as geninstance emits — instances,
// task DAGs carrying an "edges" key, or {"source","item"} envelopes
// that name their payload):
//
//	schedcli sweepbatch -in instances/ -out fronts.jsonl
//	geninstance ... | schedcli sweepbatch -points 16
//
// Files named *.graph.json are task DAGs and sweep the RLS family over
// the δ ≥ 2 grid points; they mix freely with instance files in one
// directory (or name one directly with -in). The instance format is
// the one produced by geninstance, and a graph file adds an edge list:
//
//	{"m": 2, "tasks": [{"id":0,"p":4,"s":1}, ...]}
//	{"m": 2, "tasks": [...], "edges": [[0,1], [1,2]]}
//
// With -refine the batch runs adaptive sweeps: each item's coarse
// sweep at the configured grid is followed by a refinement phase that
// re-sweeps it only where its front's relative gap exceeds -refine-gap
// (at most -refine-max-points new δ values per item; task DAGs plan
// RLS-eligible points only). The merged fronts print in the same JSONL
// format, one deduplicated front per item, each as soon as it is done:
//
//	schedcli sweepbatch -in instances/ -refine -refine-gap 0.1
//
// Repeated sweeps reuse fronts through a content-addressed cache
// (-cache-dir for a disk tier shared across runs and machines,
// -cache-mem for the in-process LRU bound) — the output is
// byte-identical either way:
//
//	schedcli sweepbatch -in instances/ -cache-dir ~/.sweepcache
//
// The shard subcommand splits a large batch into K deterministic
// shards across processes or machines: `shard plan` writes plan.json plus one shard-<k>.list per
// shard (each a valid sweepbatch -in input), `shard merge` interleaves
// the per-shard JSONL outputs back into input order, and `shard exec`
// drives the whole flow with one sweepbatch subprocess per shard:
//
//	schedcli shard plan -in instances/ -shards 4 -policy hash -out-dir plans/
//	schedcli shard merge -plan plans/plan.json -out fronts.jsonl s0.jsonl s1.jsonl s2.jsonl s3.jsonl
//	schedcli shard exec -in instances/ -shards 4 -out fronts.jsonl
//
// The cache subcommand maintains a front-cache directory: stats lists
// what the persistent tier holds, gc runs one lifecycle sweep (size
// and age caps with deterministic oldest-first eviction, orphaned-tmp
// collection), and verify decodes every entry with the engine's
// cached-front decoder and deletes garbage:
//
//	schedcli cache stats -dir ~/.sweepcache
//	schedcli cache gc -dir ~/.sweepcache -max-bytes 100000000 -max-age 720h
//	schedcli cache verify -dir ~/.sweepcache
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"iter"
	"os"
	"path/filepath"
	"sort"
	"strings"

	sched "storagesched"
	"storagesched/internal/metrics"
	"storagesched/internal/serve"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "sweep" {
		if err := runSweep(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "schedcli: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "sweepbatch" {
		if err := runSweepBatch(os.Args[2:], os.Stdin, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "schedcli: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "shard" {
		if err := runShard(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "schedcli: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "cache" {
		if err := runCache(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "schedcli: %v\n", err)
			os.Exit(1)
		}
		return
	}

	inPath := flag.String("in", "", "instance JSON file (default: stdin)")
	alg := flag.String("alg", "sbo", "algorithm: sbo | rls | lpt | ls | constrained")
	delta := flag.Float64("delta", 1.0, "SBO/RLS parameter delta")
	tieName := flag.String("tie", "spt", "RLS tie-break: id | spt | lpt | blevel")
	budget := flag.Int64("budget", -1, "memory budget for -alg constrained")
	showGantt := flag.Bool("gantt", true, "render an ASCII Gantt chart")
	width := flag.Int("width", 60, "Gantt width in columns")
	flag.Parse()

	if err := run(*inPath, *alg, *delta, *tieName, *budget, *showGantt, *width); err != nil {
		fmt.Fprintf(os.Stderr, "schedcli: %v\n", err)
		os.Exit(1)
	}
}

// runSweep implements the sweep subcommand.
func runSweep(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	inPath := fs.String("in", "", "instance JSON file (default: stdin)")
	dmin := fs.Float64("dmin", 0.25, "smallest delta of the grid")
	dmax := fs.Float64("dmax", 8, "largest delta of the grid")
	points := fs.Int("points", 32, "number of grid points")
	gridKind := fs.String("grid", "geo", "grid spacing: geo | lin")
	workers := fs.Int("workers", 0, "worker count (0 = one per CPU)")
	noSBO := fs.Bool("no-sbo", false, "skip the SBO family")
	noRLS := fs.Bool("no-rls", false, "skip the RLS family")
	if err := fs.Parse(args); err != nil {
		return err
	}
	grid, err := buildGrid(*gridKind, *dmin, *dmax, *points)
	if err != nil {
		return err
	}

	in, err := readInstance(*inPath)
	if err != nil {
		return err
	}

	res, err := sched.Sweep(context.Background(), in, sched.SweepConfig{
		Deltas:  grid,
		Workers: *workers,
		SkipSBO: *noSBO,
		SkipRLS: *noRLS,
	})
	if err != nil {
		return err
	}

	failed := 0
	for _, run := range res.Runs {
		if run.Err != nil {
			failed++
		}
	}
	fmt.Fprintf(w, "instance: n=%d m=%d  lower bounds: Cmax >= %d, Mmax >= %d\n",
		in.N(), in.M, res.Bounds.CmaxLB, res.Bounds.MmaxLB)
	fmt.Fprintf(w, "sweep: %d runs over %d grid points (%d failed) -> %d front points\n\n",
		len(res.Runs), *points, failed, len(res.Front))
	fmt.Fprintf(w, "%-10s %-10s %-9s %-9s %s\n", "Cmax", "Mmax", "Cmax/LB", "Mmax/LB", "witness")
	for _, p := range res.Front {
		fmt.Fprintf(w, "%-10d %-10d %-9.4f %-9.4f %s\n",
			p.Value.Cmax, p.Value.Mmax,
			float64(p.Value.Cmax)/float64(res.Bounds.CmaxLB),
			float64(p.Value.Mmax)/float64(res.Bounds.MmaxLB),
			res.Runs[p.RunIndex].Label())
	}
	return nil
}

// buildGrid constructs the δ-grid for the sweep subcommands; grid
// shape errors surface as messages, not stack traces. The vocabulary
// lives in the serve session layer so schedd speaks it too.
func buildGrid(kind string, dmin, dmax float64, points int) ([]float64, error) {
	return serve.BuildGrid(kind, dmin, dmax, points)
}

// runSweepBatch implements the sweepbatch subcommand: a streaming
// batch sweep over a directory, JSONL file or stdin, one front per
// output line, in input order.
func runSweepBatch(args []string, stdin io.Reader, w io.Writer) error {
	fs := flag.NewFlagSet("sweepbatch", flag.ContinueOnError)
	inPath := fs.String("in", "", "directory of *.json instances and *.graph.json task DAGs, a .jsonl file (one instance per line), a .list file (one instance/graph path per line), or a single .json/.graph.json file (default: a stream of JSON documents on stdin — compact JSONL or indented alike)")
	outPath := fs.String("out", "", "output JSONL file (default: stdout)")
	dmin := fs.Float64("dmin", 0.25, "smallest delta of the grid")
	dmax := fs.Float64("dmax", 8, "largest delta of the grid")
	points := fs.Int("points", 32, "number of grid points")
	gridKind := fs.String("grid", "geo", "grid spacing: geo | lin")
	workers := fs.Int("workers", 0, "shared pool size (0 = one per CPU)")
	pending := fs.Int("pending", 0, "max instances in flight (0 = twice the workers)")
	noSBO := fs.Bool("no-sbo", false, "skip the SBO family")
	noRLS := fs.Bool("no-rls", false, "skip the RLS family")
	cacheDir := fs.String("cache-dir", "", "content-addressed front cache directory (disk tier)")
	cacheMem := fs.Int("cache-mem", 0, "front cache memory-tier entries (0 = default when caching; < 0 = disk-only)")
	doRefine := fs.Bool("refine", false, "adaptive sweep: re-sweep δ-intervals where each front's relative gap exceeds -refine-gap")
	refineGap := fs.Float64("refine-gap", sched.DefaultRefineGap, "relative front gap above which the δ-interval is refined")
	refineMax := fs.Int("refine-max-points", sched.DefaultRefineMaxPoints, "refinement δ points budgeted per item")
	stats := fs.Bool("stats", false, "print the batch's metrics registry (Prometheus text format) to stderr when done — the same families a schedd /metrics scrape exposes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec := serve.SweepSpec{
		SkipSBO:         *noSBO,
		SkipRLS:         *noRLS,
		MaxPending:      *pending,
		Refine:          *doRefine,
		RefineGap:       *refineGap,
		RefineMaxPoints: *refineMax,
	}
	grid, err := buildGrid(*gridKind, *dmin, *dmax, *points)
	if err != nil {
		return err
	}
	spec.Deltas = grid
	fcache, err := serve.OpenCache(*cacheDir, *cacheMem)
	if err != nil {
		return err
	}

	items, err := batchItems(*inPath, stdin)
	if err != nil {
		return err
	}

	out := w
	var outFile *os.File
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		outFile = f
		out = f
	}
	bw := bufio.NewWriter(out)

	// The session layer (shared with the schedd daemon) runs the whole
	// pipeline — tagging, the sweep itself (adaptive or plain) and the
	// JSONL encoding — so the CLI and HTTP outputs are byte-identical on
	// identical inputs.
	scfg := serve.SessionConfig{Workers: *workers, Cache: fcache}
	if *stats {
		scfg.Metrics = metrics.NewRegistry()
	}
	session := serve.NewSession(scfg)
	defer session.Close()
	st, err := session.Sweep(context.Background(), items, spec, bw)
	if fcache != nil {
		cst := fcache.Stats()
		fmt.Fprintf(os.Stderr, "schedcli: cache %d hits (%d mem, %d disk), %d misses, %d evictions\n",
			cst.Hits, cst.MemHits, cst.DiskHits, cst.Misses, cst.Evictions)
	}
	if *stats {
		// The registry snapshot goes to stderr so the JSONL fronts on
		// stdout stay byte-identical with or without -stats.
		session.Registry().WriteText(os.Stderr)
	}
	if err != nil {
		if outFile != nil {
			outFile.Close()
		}
		return err
	}
	if err := bw.Flush(); err != nil {
		if outFile != nil {
			outFile.Close()
		}
		return err
	}
	// Close explicitly: a write-back error surfacing at close (full
	// disk, NFS) must fail the command, not vanish in a defer.
	if outFile != nil {
		if err := outFile.Close(); err != nil {
			return err
		}
	}
	if st.Failed > 0 {
		return fmt.Errorf("sweepbatch: %d of %d instances failed (see the error lines in the output)", st.Failed, st.Items)
	}
	return nil
}

// batchItems lazily yields (item, source label) pairs from a directory
// of *.json files, a .jsonl stream, a single .json file, or stdin (a
// stream of concatenated JSON values — compact JSONL and indented
// documents both work). Read and parse failures are carried on the
// item, so one bad file fails alone inside the batch instead of
// aborting it.
func batchItems(inPath string, stdin io.Reader) (iter.Seq2[sched.BatchItem, string], error) {
	if inPath == "" {
		return serve.DecodeItems("stdin", stdin, nil), nil
	}
	info, err := os.Stat(inPath)
	if err != nil {
		return nil, err
	}
	if info.IsDir() {
		names, err := filepath.Glob(filepath.Join(inPath, "*.json"))
		if err != nil {
			return nil, err
		}
		sort.Strings(names)
		if len(names) == 0 {
			return nil, fmt.Errorf("no *.json instances in %s", inPath)
		}
		return func(yield func(sched.BatchItem, string) bool) {
			for _, name := range names {
				if !yield(fileItem(name), filepath.Base(name)) {
					return
				}
			}
		}, nil
	}
	if strings.HasSuffix(inPath, ".jsonl") {
		f, err := os.Open(inPath)
		if err != nil {
			return nil, err
		}
		return serve.DecodeJSONLItems(filepath.Base(inPath), f, f), nil
	}
	if strings.HasSuffix(inPath, ".list") {
		paths, err := readListFile(inPath)
		if err != nil {
			return nil, err
		}
		return func(yield func(sched.BatchItem, string) bool) {
			for _, name := range paths {
				if !yield(fileItem(name), filepath.Base(name)) {
					return
				}
			}
		}, nil
	}
	// Single instance or graph JSON file.
	return func(yield func(sched.BatchItem, string) bool) {
		yield(fileItem(inPath), filepath.Base(inPath))
	}, nil
}

// readListFile reads a .list file: one instance/graph path per line,
// used verbatim (blank lines and #-comments skipped). The shard plan
// subcommand emits these so `sweepbatch -in shard-K.list` subprocesses
// sweep exactly their slice of a planned batch. An empty list is a
// valid empty batch — a plan with more shards than items legitimately
// leaves some shards without work, and their sweep must still produce
// an (empty) output for the merge.
func readListFile(name string) ([]string, error) {
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		paths = append(paths, line)
	}
	return paths, nil
}

// fileItem reads one *.json file as a batch item: files named
// *.graph.json decode as task DAGs, everything else as instances. Read
// and parse failures ride on the item, so one bad file fails alone.
func fileItem(name string) sched.BatchItem {
	item := sched.BatchItem{}
	if strings.HasSuffix(name, ".graph.json") {
		g, err := readGraph(name)
		if err != nil {
			item.Err = fmt.Errorf("%s: %w", name, err)
		} else {
			item.Graph = g
		}
		return item
	}
	if in, err := readInstance(name); err != nil {
		item.Err = fmt.Errorf("%s: %w", name, err)
	} else {
		item.Instance = in
	}
	return item
}

// readGraph decodes a JSON task DAG from the given file.
func readGraph(name string) (*sched.Graph, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return sched.ReadGraphJSON(f)
}

// readInstance decodes a JSON instance from the given file, or from
// stdin when the path is empty.
func readInstance(inPath string) (*sched.Instance, error) {
	var r io.Reader = os.Stdin
	if inPath != "" {
		f, err := os.Open(inPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return sched.ReadInstanceJSON(r)
}

func run(inPath, alg string, delta float64, tieName string, budget int64, showGantt bool, width int) error {
	in, err := readInstance(inPath)
	if err != nil {
		return err
	}

	var tie sched.TieBreak
	switch tieName {
	case "id":
		tie = sched.TieByID
	case "spt":
		tie = sched.TieSPT
	case "lpt":
		tie = sched.TieLPT
	case "blevel":
		tie = sched.TieBottomLevel
	default:
		return fmt.Errorf("unknown tie-break %q", tieName)
	}

	rec := sched.BoundsForInstance(in)
	fmt.Printf("instance: n=%d m=%d  lower bounds: Cmax >= %d, Mmax >= %d\n\n", in.N(), in.M, rec.CmaxLB, rec.MmaxLB)

	var a sched.Assignment
	switch alg {
	case "sbo":
		res, err := sched.SBOWithLPT(in, delta)
		if err != nil {
			return err
		}
		a = res.Assignment
		rc, rm := sched.SBORatio(delta, sched.LPT{}.Ratio(in.M), sched.LPT{}.Ratio(in.M))
		fmt.Printf("SBO(delta=%g, LPT): guarantee (%.3f, %.3f)\n", delta, rc, rm)
	case "rls":
		res, err := sched.RLSIndependent(in, delta, tie)
		if err != nil {
			return err
		}
		a = res.Schedule.Assignment()
		fmt.Printf("RLS(delta=%g, tie=%s): Mmax guarantee %.3f*LB, Cmax guarantee %.3f\n",
			delta, tie, delta, sched.RLSCmaxRatio(delta, in.M))
	case "lpt":
		a = sched.LPT{}.Assign(in.P(), in.M)
		fmt.Printf("LPT on processing times only (memory unmanaged)\n")
	case "ls":
		a = sched.ListScheduling{}.Assign(in.P(), in.M)
		fmt.Printf("List scheduling on processing times only (memory unmanaged)\n")
	case "constrained":
		if budget < 0 {
			return fmt.Errorf("-alg constrained needs -budget")
		}
		res, v, err := sched.ConstrainedIndependent(in, budget)
		if err != nil {
			return err
		}
		a = res
		fmt.Printf("constrained solve: budget=%d achieved (Cmax=%d, Mmax=%d)\n", budget, v.Cmax, v.Mmax)
	default:
		return fmt.Errorf("unknown algorithm %q", alg)
	}

	fmt.Printf("objectives: Cmax=%d (ratio %.4f vs LB)  Mmax=%d (ratio %.4f vs LB)\n\n",
		in.Cmax(a), float64(in.Cmax(a))/float64(rec.CmaxLB),
		in.Mmax(a), float64(in.Mmax(a))/float64(rec.MmaxLB))
	if showGantt {
		return sched.RenderAssignment(os.Stdout, in, a, sched.GanttOptions{Width: width, ShowMemory: true})
	}
	return nil
}
