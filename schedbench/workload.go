package main

// Workload inputs. Every request body is a pure function of (workload,
// seed, stream, request number): instance and DAG templates come from
// internal/gen seeds and are encoded once, before set-up starts; the
// per-request choices (Zipf pool draws, fresh items) come from an
// inline splitmix64, and a request body is assembled from the
// pre-encoded bytes by copying, so building it costs microseconds
// beside a request that costs milliseconds.

import (
	"fmt"
	"math"
	"net/url"
	"sort"
	"strconv"

	"storagesched/internal/dag"
	"storagesched/internal/gen"
	"storagesched/internal/model"
	"storagesched/internal/refine"
	"storagesched/internal/serve"
)

// Streams separate the request sequences of one run, so the items of
// the warm-up never reappear in the timed phase.
const (
	streamTimed  = 0
	streamWarmup = 1
	streamCheck  = 2 // the digest slice, always generated at checkSeed
)

// checkSeed is the seed of the digest slice recorded in digests.json.
const checkSeed = 1

// warmupSeed seeds the warm-up stream's items whatever the run's
// seed, so set-up does the same work in every run (warm_repeat's
// warm-up still draws on the run's pool, which set-up pre-fills).
const warmupSeed = 2

// checkRequests is the number of requests in the digest slice.
const checkRequests = 2

// splitmix64 advances the state and returns the next output of the
// SplitMix64 generator (Steele, Lea and Flood), which is all the
// benchmark needs for its draws.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// mix derives an independent state from a seed and a path of indexes.
func mix(seed int64, path ...int64) uint64 {
	st := uint64(seed)
	out := splitmix64(&st)
	for _, p := range path {
		st = out ^ uint64(p)*0xd1b54a32d192ed03
		out = splitmix64(&st)
	}
	return out
}

// genSeed turns a derived state into a non-negative generator seed.
func genSeed(seed int64, path ...int64) int64 {
	return int64(mix(seed, path...) >> 1)
}

// unit returns a uniform draw in [0, 1).
func unit(state *uint64) float64 {
	return float64(splitmix64(state)>>11) / (1 << 53)
}

// variantTasks is the number of trailing tasks whose storage sizes
// carry a fresh item's variant number, three bits each: 8^6 variants
// per template, every one a distinct instance.
const variantTasks = 6

// template is one pre-encoded item: the JSON document up to the tasks
// a variant perturbs, and those tasks' values.
type template struct {
	graph  bool
	n, m   int
	edges  int
	prefix []byte       // a graph's whole document; an instance's up to its tail
	tailP  []model.Time // instances only: the last variantTasks tasks
	tailS  []model.Mem
}

// instanceTemplate encodes an instance as compact JSON with implicit
// task IDs, keeping the last variantTasks tasks apart.
func instanceTemplate(in *model.Instance) template {
	n := in.N()
	t := template{n: n, m: in.M}
	b := append([]byte(`{"m":`), strconv.Itoa(in.M)...)
	b = append(b, `,"tasks":[`...)
	for i, task := range in.Tasks[:n-variantTasks] {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendTask(b, task.P, task.S)
	}
	t.prefix = b
	for _, task := range in.Tasks[n-variantTasks:] {
		t.tailP = append(t.tailP, task.P)
		t.tailS = append(t.tailS, task.S)
	}
	return t
}

// graphTemplate encodes a task DAG; graphs are never varied.
func graphTemplate(g *dag.Graph) template {
	t := template{graph: true, n: g.N(), m: g.M, edges: g.NumEdges()}
	b := append([]byte(`{"m":`), strconv.Itoa(g.M)...)
	b = append(b, `,"tasks":[`...)
	for i := range g.N() {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendTask(b, g.P[i], g.S[i])
	}
	b = append(b, `],"edges":[`...)
	first := true
	for u := range g.N() {
		for _, v := range g.Succs(u) {
			if !first {
				b = append(b, ',')
			}
			first = false
			b = append(b, '[')
			b = strconv.AppendInt(b, int64(u), 10)
			b = append(b, ',')
			b = strconv.AppendInt(b, int64(v), 10)
			b = append(b, ']')
		}
	}
	t.prefix = append(b, "]}"...)
	return t
}

func appendTask(b []byte, p model.Time, s model.Mem) []byte {
	b = append(b, `{"p":`...)
	b = strconv.AppendInt(b, p, 10)
	b = append(b, `,"s":`...)
	b = strconv.AppendInt(b, s, 10)
	return append(b, '}')
}

// appendItem appends the item's document: a graph verbatim, an
// instance with its trailing storage sizes raised by the digits of
// variant (variant 0 is the template itself).
func (t *template) appendItem(b []byte, variant int) []byte {
	if t.graph {
		return append(b, t.prefix...)
	}
	b = append(b, t.prefix...)
	for k := range variantTasks {
		b = append(b, ',')
		b = appendTask(b, t.tailP[k], t.tailS[k]+model.Mem(variant>>(3*k)&7))
	}
	return append(b, "]}"...)
}

// itemRef is what the output check expects of one line: the item's
// shape and, for a warm pool item, its pool index (-1 otherwise).
type itemRef struct {
	graph bool
	n, m  int
	edges int
	pool  int
}

func (t *template) ref(pool int) itemRef {
	return itemRef{graph: t.graph, n: t.n, m: t.m, edges: t.edges, pool: pool}
}

// request is one generated request: its body and what each line of
// the answer must describe.
type request struct {
	body  []byte
	items []itemRef
}

// workload is one traffic mix: the sweep parameters every request
// carries, the cache the daemon runs with, and the request generator.
type workload struct {
	name string
	why  string

	// sweep is what every request of the workload asks for.
	sweep sweepParams

	// cache selects the daemon's front cache.
	cache cacheKind

	// itemsPerRequest is the number of items in every body.
	itemsPerRequest int

	// replayRequests is the number of timed-stream bodies the traced
	// replay pushes through each layer.
	replayRequests int

	// gen builds the request generator for one seed and stream.
	gen func(seed int64, stream int) *generator
}

// cacheKind is the front cache a workload's daemon runs with.
type cacheKind int

const (
	cacheOff       cacheKind = iota
	cacheMemory              // memory tier only, default capacity
	cacheMemOnDisk           // 200-entry memory tier over a DirStore
)

// warmMemEntries is warm_repeat's memory tier: smaller than the pool,
// so the disk tier serves the pool's tail.
const warmMemEntries = 200

// generator produces the requests of one (workload, seed, stream).
type generator struct {
	// pool holds warm_repeat's shared items, requested by index.
	pool []template
	// fixed holds dense_refine's instances and DAGs, drawn at random
	// and never varied (its daemon runs without a cache); a request
	// alternates between the two lists.
	fixed [2][]template
	// fresh holds templates whose variants are never-seen items.
	fresh []template

	perRequest int
	freshFrac  float64 // warm_repeat: share of fresh items
	seed       int64
	stream     int
	zipfCDF    []float64
}

// request builds request r of the generator's stream.
func (g *generator) request(r int) request {
	var req request
	st := mix(g.seed, int64(g.stream), int64(r), 7)
	var b []byte
	for i := range g.perRequest {
		if i > 0 {
			b = append(b, '\n')
		}
		switch {
		case g.pool != nil && unit(&st) >= g.freshFrac:
			// The CDF ends at exactly 1 and draws are below 1, so k
			// is a valid pool index.
			k := sort.SearchFloat64s(g.zipfCDF, unit(&st))
			b = g.pool[k].appendItem(b, 0)
			req.items = append(req.items, g.pool[k].ref(k))
		case g.fixed[0] != nil:
			kind := g.fixed[i%2]
			t := &kind[splitmix64(&st)%uint64(len(kind))]
			b = t.appendItem(b, 0)
			req.items = append(req.items, t.ref(-1))
		default:
			// A fresh item: the variant number grows with the item's
			// global position, so no two items of a stream coincide.
			j := r*g.perRequest + i
			t := &g.fresh[j%len(g.fresh)]
			b = t.appendItem(b, 1+j/len(g.fresh))
			req.items = append(req.items, t.ref(-1))
		}
	}
	req.body = append(b, '\n')
	return req
}

// poolRequests returns the requests that sweep the whole warm pool in
// index order — the set-up pre-fill.
func (g *generator) poolRequests() []request {
	var out []request
	for lo := 0; lo < len(g.pool); lo += g.perRequest {
		var req request
		var b []byte
		for k := lo; k < min(lo+g.perRequest, len(g.pool)); k++ {
			b = g.pool[k].appendItem(b, 0)
			b = append(b, '\n')
			req.items = append(req.items, g.pool[k].ref(k))
		}
		req.body = b
		out = append(out, req)
	}
	return out
}

// familyInstances draws count instances rotating through
// gen.Families(), seeded from (seed, stream, tag, index).
func familyInstances(count, n, m int, seed int64, stream int, tag int64) []template {
	fams := gen.Families()
	out := make([]template, count)
	for i := range out {
		f := fams[i%len(fams)]
		out[i] = instanceTemplate(f.Gen(n, m, genSeed(seed, int64(stream), tag, int64(i))))
	}
	return out
}

// zipfCDF returns the cumulative distribution of Zipf(s) over n ranks.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	total := 0.0
	for k := range n {
		total += math.Pow(float64(k+1), -s)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	return cdf
}

// Sizes of the workloads (see README.md for why each was chosen).
const (
	coldN, coldM       = 120, 8
	coldItems          = 50
	coldTemplates      = 500
	denseN, denseM     = 1000, 32
	denseDAGLayers     = 20
	denseDAGWidth      = 20
	denseDAGM          = 8
	denseKinds         = 4 // instances and DAGs per request, each
	denseTemplates     = 64
	warmPool           = 500
	warmFreshFrac      = 0.10
	warmFreshTemplates = 250
)

// sweepParams are the sweep parameters of a workload's requests: a
// geometric δ-grid, optionally adaptively refined.
type sweepParams struct {
	dmin, dmax float64
	points     int
	refine     bool
	gap        float64
	maxPoints  int
}

// query renders the parameters as the /v1/sweep query string.
func (p sweepParams) query() string {
	q := url.Values{
		"dmin":   {strconv.FormatFloat(p.dmin, 'g', -1, 64)},
		"dmax":   {strconv.FormatFloat(p.dmax, 'g', -1, 64)},
		"points": {strconv.Itoa(p.points)},
		"grid":   {"geo"},
	}
	if p.refine {
		q.Set("refine", "1")
		q.Set("refine-gap", strconv.FormatFloat(p.gap, 'g', -1, 64))
		q.Set("refine-max-points", strconv.Itoa(p.maxPoints))
	}
	return q.Encode()
}

// spec is the same sweep as the SweepSpec the daemon derives from the
// query, for the replay's direct calls.
func (p sweepParams) spec() (serve.SweepSpec, error) {
	deltas, err := serve.BuildGrid("geo", p.dmin, p.dmax, p.points)
	if err != nil {
		return serve.SweepSpec{}, err
	}
	sp := serve.SweepSpec{Deltas: deltas, Refine: p.refine}
	if p.refine {
		sp.RefineGap, sp.RefineMaxPoints = p.gap, p.maxPoints
	}
	return sp, nil
}

// workloads lists the benchmark's traffic mixes.
func workloads() []*workload {
	cold := sweepParams{dmin: 2.5, dmax: 8, points: 2}
	dense := sweepParams{dmin: 0.25, dmax: 8, points: 8, refine: true, gap: 0.05, maxPoints: 8}
	return []*workload{
		{
			name:            "corpus_cold",
			why:             "unique n=120 instances on a 2-point grid: per-item prepare, decode, keying and cache write-back dominate",
			sweep:           cold,
			cache:           cacheMemory,
			itemsPerRequest: coldItems,
			replayRequests:  12,
			gen: func(seed int64, stream int) *generator {
				return &generator{
					fresh:      familyInstances(coldTemplates, coldN, coldM, seed, stream, 1),
					perRequest: coldItems, seed: seed, stream: stream,
				}
			},
		},
		{
			name:            "dense_refine",
			why:             "few large instances and DAGs on an 8-point refined grid: the SBO/RLS kernels and refinement dominate",
			sweep:           dense,
			cache:           cacheOff,
			itemsPerRequest: 2 * denseKinds,
			replayRequests:  2,
			gen: func(seed int64, stream int) *generator {
				g := &generator{perRequest: 2 * denseKinds, seed: seed, stream: stream}
				g.fixed[0] = familyInstances(denseTemplates, denseN, denseM, seed, stream, 2)
				for i := range denseTemplates {
					d := gen.LayeredDAG(denseDAGM, denseDAGLayers, denseDAGWidth, genSeed(seed, int64(stream), 3, int64(i)))
					g.fixed[1] = append(g.fixed[1], graphTemplate(d))
				}
				return g
			},
		},
		{
			name:            "warm_repeat",
			why:             "Zipf draws from a pre-filled 500-item pool plus 10% fresh items: cache hits, cached-result decoding and encoding dominate",
			sweep:           cold,
			cache:           cacheMemOnDisk,
			itemsPerRequest: coldItems,
			replayRequests:  12,
			gen: func(seed int64, stream int) *generator {
				// The pool is shared by every stream of a seed: the
				// warm-up and the timed phase draw from the same items
				// the set-up pre-filled.
				return &generator{
					pool:       familyInstances(warmPool, coldN, coldM, seed, 0, 4),
					fresh:      familyInstances(warmFreshTemplates, coldN, coldM, seed, stream, 5),
					perRequest: coldItems, freshFrac: warmFreshFrac,
					seed: seed, stream: stream,
					zipfCDF: zipfCDF(warmPool, 1),
				}
			},
		},
	}
}

// workloadByName resolves a --workload argument.
func workloadByName(name string) (*workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// refineConfig is the refinement the replay plans with: the workload's
// own when it refines, the daemon defaults otherwise (see README.md).
func (p sweepParams) refineConfig() refine.Config {
	return refine.Config{Gap: p.gap, MaxPoints: p.maxPoints}
}
