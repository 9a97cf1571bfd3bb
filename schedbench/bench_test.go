package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"storagesched/internal/cache"
	"storagesched/internal/engine"
	"storagesched/internal/gen"
	"storagesched/internal/lint"
	"storagesched/internal/serve"
)

// TestRequestsDeterministic pins the input contract: the same seed
// gives byte-identical request bodies, another seed different ones,
// and every body decodes into the items its request describes.
func TestRequestsDeterministic(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			a, b, other := w.gen(7, streamTimed), w.gen(7, streamTimed), w.gen(8, streamTimed)
			for r := range 3 {
				ra, rb := a.request(r), b.request(r)
				if !bytes.Equal(ra.body, rb.body) {
					t.Fatalf("request %d: same seed, different bodies", r)
				}
				if bytes.Equal(ra.body, other.request(r).body) {
					t.Fatalf("request %d: seeds 7 and 8 give the same body", r)
				}
				i := 0
				for item, source := range serve.DecodeItems("body", bytes.NewReader(ra.body), nil) {
					if item.Err != nil {
						t.Fatalf("request %d item %d (%s): %v", r, i, source, item.Err)
					}
					ref := ra.items[i]
					n, m := 0, 0
					if item.Graph != nil {
						n, m = item.Graph.N(), item.Graph.M
					} else {
						n, m = item.Instance.N(), item.Instance.M
					}
					if (item.Graph != nil) != ref.graph || n != ref.n || m != ref.m {
						t.Fatalf("request %d item %d: decoded n=%d m=%d graph=%v, request says %+v", r, i, n, m, item.Graph != nil, ref)
					}
					i++
				}
				if i != w.itemsPerRequest || len(ra.items) != i {
					t.Fatalf("request %d: %d items decoded, %d described, want %d", r, i, len(ra.items), w.itemsPerRequest)
				}
			}
		})
	}
}

// TestFreshItemsNeverRepeat checks that variants of one template are
// distinct instances, so a cold workload never hits its cache.
func TestFreshItemsNeverRepeat(t *testing.T) {
	tmpl := instanceTemplate(gen.Uniform(coldN, coldM, 1))
	seen := map[string]bool{}
	for v := range 4096 {
		doc := string(tmpl.appendItem(nil, v))
		if seen[doc] {
			t.Fatalf("variant %d repeats an earlier document", v)
		}
		seen[doc] = true
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4},
	} {
		if got := percentile(xs, c.q); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("percentile sorted its input in place")
	}
	if got := median([]float64{5}); got != 5 {
		t.Errorf("median of one sample = %g, want 5", got)
	}
	if got := percentile(nil, 0.9); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{name: "parent", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 30, parent: 0},
		{name: "b", start: 20, end: 50, parent: 0},  // overlaps a
		{name: "c", start: 90, end: 120, parent: 0}, // runs past the parent
		{name: "grandchild", start: 12, end: 14, parent: 1},
	}
	self := tr.selfTimes()
	if want := int64(100 - 40 - 10); self[0] != want {
		t.Errorf("parent self time %d, want %d", self[0], want)
	}
	if want := int64(20 - 2); self[1] != want {
		t.Errorf("child self time %d, want %d", self[1], want)
	}
}

// TestTimingStoreKeepsDirStoreContract: the wrapper's Put stays atomic
// under concurrent readers and leaves no intermediates, an empty blob
// is a miss, and a corrupt blob is recomputed by the engine rather than
// served.
func TestTimingStoreKeepsDirStoreContract(t *testing.T) {
	dir := t.TempDir()
	ds, err := cache.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := newTimingStore(ds)
	key := cache.KeyFor([]byte("item"), "fp")
	vals := [][]byte{bytes.Repeat([]byte("a"), 1<<16), bytes.Repeat([]byte("b"), 1<<16)}
	var wg sync.WaitGroup
	for i := range 8 {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := ts.Put(key, vals[i%2]); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			if got, ok := ts.Get(key); ok && !bytes.Equal(got, vals[0]) && !bytes.Equal(got, vals[1]) {
				t.Error("a reader saw a torn value")
			}
		}()
	}
	wg.Wait()
	if ts.gets.Load() != 8 || ts.puts.Load() != 8 {
		t.Errorf("counted %d gets and %d puts, want 8 and 8", ts.gets.Load(), ts.puts.Load())
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || strings.HasSuffix(ents[0].Name(), ".tmp") {
		t.Fatalf("store directory holds %v, want the one blob", ents)
	}

	blobPath := filepath.Join(dir, ents[0].Name())
	if err := os.WriteFile(blobPath, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := ts.Get(key); ok {
		t.Error("an empty blob read as a hit")
	}

	// A corrupt front blob: the engine must treat it as a miss.
	c, err := cache.New(cache.Config{MemEntries: -1, Store: ts})
	if err != nil {
		t.Fatal(err)
	}
	in := gen.Uniform(coldN, coldM, 3)
	cfg := engine.BatchConfig{Config: engine.Config{Deltas: []float64{2.5, 8}, Workers: 1}, Cache: c}
	sweep := func() engine.BatchResult {
		var out engine.BatchResult
		if err := engine.SweepBatch(context.Background(), engine.BatchOf(in), cfg, func(br engine.BatchResult) error {
			out = br
			return br.Err
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	cold := sweep()
	infos, err := ts.List()
	if err != nil || len(infos) != 2 {
		t.Fatalf("after a cold sweep the store lists %d blobs (%v), want 2", len(infos), err)
	}
	for _, info := range infos {
		if info.Key != key {
			if err := os.WriteFile(filepath.Join(dir, info.Key.String()+".json"), []byte("{not json"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	again := sweep()
	if again.CacheHit {
		t.Error("a corrupt blob was served as a cache hit")
	}
	if !equalFronts(cold.Result, again.Result) {
		t.Error("recomputing past a corrupt blob changed the front")
	}
}

func equalFronts(a, b *engine.Result) bool {
	if len(a.Front) != len(b.Front) {
		return false
	}
	for i := range a.Front {
		if a.Front[i] != b.Front[i] {
			return false
		}
	}
	return true
}

func TestCheckLineRejectsBadFronts(t *testing.T) {
	ref := itemRef{n: 3, m: 2, pool: -1}
	good := `{"source":"body:1","index":0,"n":3,"m":2,"cmax_lb":5,"mmax_lb":4,"runs":2,"front":[{"cmax":5,"mmax":9,"witness":"a"},{"cmax":7,"mmax":4,"witness":"b"}]}`
	if err := checkLine([]byte(good), 0, ref, nil); err != nil {
		t.Fatalf("good line rejected: %v", err)
	}
	for name, line := range map[string]string{
		"not monotone": strings.Replace(good, `"cmax":7`, `"cmax":5`, 1),
		"below bound":  strings.Replace(good, `"mmax":4,"witness"`, `"mmax":3,"witness"`, 1),
		"wrong source": strings.Replace(good, "body:1", "body:2", 1),
		"error line":   `{"source":"body:1","index":0,"error":"boom"}`,
		"wrong shape":  strings.Replace(good, `"n":3`, `"n":4`, 1),
	} {
		if err := checkLine([]byte(line), 0, ref, nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	cold := coldLines{0: lineTail([]byte(good))}
	moved := strings.Replace(good, `"source":"body:1","index":0`, `"source":"body:4","index":3`, 1)
	if err := checkLine([]byte(moved), 3, itemRef{n: 3, m: 2, pool: 0}, cold); err != nil {
		t.Errorf("a pool item's line at another position rejected: %v", err)
	}
	changed := strings.Replace(moved, `"witness":"b"`, `"witness":"c"`, 1)
	if err := checkLine([]byte(changed), 3, itemRef{n: 3, m: 2, pool: 0}, cold); err == nil {
		t.Error("a pool item's line that differs from its cold line accepted")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in
// step with the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		kind string
		got  []struct{ Name, Unit, Better string }
		want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", c.kind, len(c.got), len(c.want))
		}
		for i, d := range c.want {
			if g := c.got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", c.kind, i, g, d)
			}
		}
	}
}

// TestLintClean holds the benchmark to the repository's own analyzers,
// as the module's TestTreeClean does for the packages under it.
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the benchmark and its imports from source")
	}
	diags, fset, err := lint.Load(".", []string{"./..."}, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s [%s]", fset.Position(d.Pos), d.Message, d.Analyzer)
	}
}
