// Package exp defines the reproduction experiments: one named,
// self-checking experiment per figure and per quantitative claim of
// the paper (the registry below is the index; `experiments -list`
// prints it). Every experiment writes a human-readable report — the
// same rows/series the paper presents — and returns a non-nil error if
// a paper-claimed bound is violated, so the whole reproduction is
// enforceable by tests and CI.
package exp

import (
	"fmt"
	"io"
	"sort"

	"storagesched/internal/engine"
)

// Experiment is one reproducible unit: a figure, lemma, corollary or
// ablation.
type Experiment struct {
	// ID is the registry identifier (FIG1, PROP12, ...).
	ID string
	// Title is a one-line description.
	Title string
	// Paper states what the paper claims or depicts.
	Paper string
	// Run writes the report and self-checks the claims.
	Run func(w io.Writer) error
}

// sweepWorkers overrides the worker count of engine-backed
// experiments; 0 keeps the engine default (one worker per CPU).
var sweepWorkers int

// SetSweepWorkers sets the worker count used by the engine-backed
// experiments (cmd/experiments exposes it as -workers). n <= 0
// restores the default.
func SetSweepWorkers(n int) {
	if n < 0 {
		n = 0
	}
	sweepWorkers = n
}

// sweepPending overrides the batch in-flight window of engine-backed
// experiments; 0 keeps the engine default (2× the worker count).
var sweepPending int

// SetSweepPending sets the maximum number of in-flight instances used
// by the batch-backed experiments (cmd/experiments exposes it as
// -pending). n <= 0 restores the default.
func SetSweepPending(n int) {
	if n < 0 {
		n = 0
	}
	sweepPending = n
}

// batchConfig wraps a per-instance sweep config with the experiment
// overrides for the shared pool and streaming window.
func batchConfig(cfg engine.Config) engine.BatchConfig {
	cfg.Workers = sweepWorkers
	return engine.BatchConfig{Config: cfg, MaxPending: sweepPending}
}

// registry is populated by the per-file init functions.
var registry []Experiment

func register(e Experiment) {
	registry = append(registry, e)
}

// Registry returns all experiments sorted by ID.
func Registry() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds an experiment by its identifier.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment in ID order, writing each report to
// w, and returns the first claim violation (after running everything).
func RunAll(w io.Writer) error {
	var firstErr error
	for _, e := range Registry() {
		fmt.Fprintf(w, "==== %s — %s ====\n", e.ID, e.Title)
		fmt.Fprintf(w, "paper: %s\n\n", e.Paper)
		if err := e.Run(w); err != nil {
			fmt.Fprintf(w, "CLAIM CHECK FAILED: %v\n", err)
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", e.ID, err)
			}
		} else {
			fmt.Fprintf(w, "claim check: OK\n")
		}
		fmt.Fprintln(w)
	}
	return firstErr
}

// ratioRow formats a measured-vs-bound row and reports violation.
func ratioRow(w io.Writer, label string, measured, bound float64) bool {
	status := "ok"
	viol := measured > bound+1e-6
	if viol {
		status = "VIOLATED"
	}
	fmt.Fprintf(w, "%-34s measured=%8.4f  bound=%8.4f  [%s]\n", label, measured, bound, status)
	return viol
}
