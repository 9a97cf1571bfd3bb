package engine

// Front caching for SweepBatch. Completed sweep fronts are stored in
// a content-addressed cache (internal/cache) keyed by the item's
// canonical bytes plus a fingerprint of the parts of the effective
// Config that determine the outcome. The batch's admission step
// consults the cache before job generation: a hit skips the item's
// jobs entirely and its Result — front artifacts identical to a
// computed one's, witness payloads elided (see wireResult) — is
// emitted in the usual stream order; a miss records the key so the
// completed front is written back at emission.

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"storagesched/internal/bounds"
	"storagesched/internal/cache"
	"storagesched/internal/core"
	"storagesched/internal/makespan"
	"storagesched/internal/model"
)

// configFingerprint renders the result-determining part of an
// effective sweep config for a given item kind. It is deliberately
// *normalized*: fields that cannot influence the item's Result —
// Workers, the SBO sub-algorithms of a graph item, tie-breaks when no
// RLS run is selected, sub-δ grid points of a graph item — are
// excluded, so configs that differ only in irrelevant ways still share
// cache entries.
func configFingerprint(cfg Config, graph bool) string {
	var b strings.Builder
	b.WriteString("fp1") // bump when the wire format or semantics change
	if graph {
		b.WriteString("|graph")
	}
	runsSBO := !graph && !cfg.SkipSBO
	b.WriteString("|d=")
	runsRLS := false
	for _, d := range cfg.Deltas {
		rls := !cfg.SkipRLS && d >= 2
		runsRLS = runsRLS || rls
		if !runsSBO && !rls {
			// The point generates no job for this item (graph items and
			// SkipSBO configs run nothing below δ = 2); it is inert and
			// must not split cache entries.
			continue
		}
		// Hex float form is exact: distinct float64 grids never alias.
		b.WriteString(strconv.FormatFloat(d, 'x', -1, 64))
		b.WriteByte(',')
	}
	if runsSBO {
		algC, algM := cfg.AlgC, cfg.AlgM
		if algC == nil {
			algC = makespan.LPT{}
		}
		if algM == nil {
			algM = makespan.LPT{}
		}
		// Type plus exported parameters (e.g. PTAS{Epsilon:0.25})
		// identify a sub-algorithm configuration.
		fmt.Fprintf(&b, "|algC=%T%+v|algM=%T%+v", algC, algC, algM, algM)
	}
	if runsRLS {
		b.WriteString("|ties=")
		for _, tie := range cfg.tieSet() {
			b.WriteString(tie.String())
			b.WriteByte(',')
		}
	}
	return b.String()
}

// itemKey computes the cache key of a valid batch item under the
// config of one of its sweep phases.
func itemKey(st *batchState, cfg Config) cache.Key {
	var canonical []byte
	if st.g != nil {
		canonical = cache.CanonicalGraph(st.g)
	} else {
		canonical = cache.CanonicalInstance(st.in)
	}
	return cache.KeyFor(canonical, configFingerprint(cfg, st.g != nil))
}

// cachedResult looks key up in c and decodes the entry. An absent or
// undecodable entry is a miss; the caller recomputes and overwrites it.
func cachedResult(c *cache.Cache, key cache.Key) (*Result, bool) {
	data, ok := c.Get(key)
	if !ok {
		return nil, false
	}
	res, err := decodeResult(data)
	return res, err == nil
}

// putResult writes a computed Result back to c under key.
func putResult(c *cache.Cache, key cache.Key, res *Result) {
	if data, err := encodeResult(res); err == nil {
		c.Put(key, data)
	}
}

// wireVersion guards the cached-Result encoding; bump it whenever the
// wire structs change shape so stale entries decode as misses.
const wireVersion = 1

// wireResult is the cached form of a Result: the *front artifacts* — the
// bounds record, each run's provenance (algorithm, tie, δ) and achieved
// objective value, and the assembled front. The per-run witness payloads
// (Run.Assignment and the SBO/RLS analysis records) are deliberately not
// cached: they are an order of magnitude larger than the fronts, are not
// part of any sweep summary, and decoding them would cost more than many
// sweeps compute — a front cache that re-reads schedules is slower than
// no cache. A cached Result therefore carries nil witness fields, and
// BatchResult.CacheHit flags it; consumers that need the schedules sweep
// uncached.
type wireResult struct {
	V      int              `json:"v"`
	Bounds bounds.Record    `json:"bounds"`
	Runs   []wireRun        `json:"runs"`
	Front  []wireFrontPoint `json:"front,omitempty"`
}

type wireRun struct {
	Algorithm Algorithm     `json:"alg"`
	Tie       core.TieBreak `json:"tie"`
	Delta     float64       `json:"delta"`
	Cmax      model.Time    `json:"cmax"`
	Mmax      model.Mem     `json:"mmax"`
	Err       string        `json:"err,omitempty"`
}

type wireFrontPoint struct {
	Cmax     model.Time `json:"cmax"`
	Mmax     model.Mem  `json:"mmax"`
	RunIndex int        `json:"run"`
}

// encodeResult serializes a completed Result for the cache.
func encodeResult(res *Result) ([]byte, error) {
	wr := wireResult{V: wireVersion, Bounds: res.Bounds, Runs: make([]wireRun, len(res.Runs))}
	for i, r := range res.Runs {
		w := wireRun{
			Algorithm: r.Algorithm,
			Tie:       r.Tie,
			Delta:     r.Delta,
			Cmax:      r.Value.Cmax,
			Mmax:      r.Value.Mmax,
		}
		if r.Err != nil {
			w.Err = r.Err.Error()
		}
		wr.Runs[i] = w
	}
	for _, p := range res.Front {
		wr.Front = append(wr.Front, wireFrontPoint{Cmax: p.Value.Cmax, Mmax: p.Value.Mmax, RunIndex: p.RunIndex})
	}
	return json.Marshal(wr)
}

// CheckCachedResult reports whether data decodes as a cached sweep
// Result — the integrity check `schedcli cache verify` and the cache
// lifecycle run over stored entries. Any defect the decoder would
// treat as a miss (wrong version, malformed JSON, out-of-range front
// witness) is the returned error.
func CheckCachedResult(data []byte) error {
	_, err := decodeResult(data)
	return err
}

// decodeResult deserializes a cached Result. Any defect — wrong
// version, malformed JSON, out-of-range front witness — is an error,
// which callers treat as a cache miss and recompute.
func decodeResult(data []byte) (*Result, error) {
	var wr wireResult
	if err := json.Unmarshal(data, &wr); err != nil {
		return nil, fmt.Errorf("engine: decoding cached result: %w", err)
	}
	if wr.V != wireVersion {
		return nil, fmt.Errorf("engine: cached result version %d, want %d", wr.V, wireVersion)
	}
	res := &Result{Bounds: wr.Bounds, Runs: make([]Run, len(wr.Runs))}
	for i, w := range wr.Runs {
		r := Run{
			Algorithm: w.Algorithm,
			Tie:       w.Tie,
			Delta:     w.Delta,
			Value:     model.Value{Cmax: w.Cmax, Mmax: w.Mmax},
		}
		if w.Err != "" {
			r.Err = errors.New(w.Err)
		}
		res.Runs[i] = r
	}
	for _, p := range wr.Front {
		if p.RunIndex < 0 || p.RunIndex >= len(res.Runs) {
			return nil, fmt.Errorf("engine: cached front witness %d out of range [0,%d)", p.RunIndex, len(res.Runs))
		}
		res.Front = append(res.Front, FrontPoint{Value: model.Value{Cmax: p.Cmax, Mmax: p.Mmax}, RunIndex: p.RunIndex})
	}
	return res, nil
}
