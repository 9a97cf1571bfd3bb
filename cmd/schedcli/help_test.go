package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// sweepBatchHelp captures the sweepbatch -h usage text (the FlagSet
// prints its defaults to stderr under ContinueOnError).
func sweepBatchHelp(t *testing.T) string {
	t.Helper()
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	runErr := runSweepBatch([]string{"-h"}, strings.NewReader(""), io.Discard)
	w.Close()
	os.Stderr = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr == nil {
		t.Fatal("sweepbatch -h returned nil, want flag.ErrHelp")
	}
	return string(out)
}

// TestSweepBatchHelpCoversEveryFlag: the -h output must document every
// flag the subcommand registers — a new flag without a usage string,
// or a renamed flag leaving its old name in the docs, fails here.
func TestSweepBatchHelpCoversEveryFlag(t *testing.T) {
	help := sweepBatchHelp(t)
	for _, name := range []string{
		"-in", "-out", "-dmin", "-dmax", "-points", "-grid",
		"-workers", "-pending", "-no-sbo", "-no-rls",
		"-cache-dir", "-cache-mem",
		"-refine", "-refine-gap", "-refine-max-points", "-stats",
	} {
		if !strings.Contains(help, "\n  "+name+" ") && !strings.Contains(help, "\n  "+name+"\n") {
			t.Errorf("sweepbatch -h does not document %s", name)
		}
	}
}

// TestSweepBatchHelpTellsTheTruth: spot-check the usage strings that
// have drifted before — -in must mention task DAGs and the stdin
// stream shape.
func TestSweepBatchHelpTellsTheTruth(t *testing.T) {
	help := sweepBatchHelp(t)
	for _, want := range []string{
		"*.graph.json",             // -in accepts DAG files
		"stream of JSON documents", // stdin is not line-framed JSONL only
	} {
		if !strings.Contains(help, want) {
			t.Errorf("sweepbatch -h missing %q", want)
		}
	}
}

// TestReadmeDocumentsBatchFlags: every advanced sweepbatch flag the
// README promises a table row for must actually appear there.
func TestReadmeDocumentsBatchFlags(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(readme)
	for _, name := range []string{
		"-cache-dir", "-cache-mem",
		"-refine", "-refine-gap", "-refine-max-points",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("README.md does not mention %s", name)
		}
	}
}
