package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	sched "storagesched"
)

// writeInstance writes a small JSON instance to a temp file.
func writeInstance(t *testing.T) string {
	t.Helper()
	in := sched.NewInstance(2,
		[]sched.Time{9, 4, 6, 2, 7},
		[]sched.Mem{3, 8, 1, 5, 2})
	path := filepath.Join(t.TempDir(), "inst.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := in.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAlgorithms(t *testing.T) {
	path := writeInstance(t)
	// Redirect stdout noise away from the test log.
	old := os.Stdout
	devnull, _ := os.Open(os.DevNull)
	defer devnull.Close()
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null
	defer func() { os.Stdout = old; null.Close() }()

	for _, alg := range []string{"sbo", "rls", "lpt", "ls"} {
		if err := run(path, alg, 3, "spt", -1, true, 40); err != nil {
			t.Errorf("alg %s: %v", alg, err)
		}
	}
	if err := run(path, "constrained", 1, "spt", 100, false, 40); err != nil {
		t.Errorf("constrained: %v", err)
	}
}

func TestRunSweepSubcommand(t *testing.T) {
	path := writeInstance(t)
	var buf strings.Builder
	err := runSweep([]string{"-in", path, "-dmin", "0.5", "-dmax", "8", "-points", "16"}, &buf)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"lower bounds", "front points", "witness", "Cmax/LB"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep output missing %q:\n%s", want, out)
		}
	}
	// Both spacings and family filters run end to end.
	for _, extra := range [][]string{
		{"-grid", "lin"},
		{"-no-sbo"},
		{"-no-rls"},
		{"-workers", "2"},
	} {
		buf.Reset()
		args := append([]string{"-in", path}, extra...)
		if err := runSweep(args, &buf); err != nil {
			t.Errorf("sweep %v: %v", extra, err)
		}
	}
}

func TestRunSweepRejectsBadInputs(t *testing.T) {
	path := writeInstance(t)
	var buf strings.Builder
	cases := [][]string{
		{"-in", path, "-dmin", "0"},
		{"-in", path, "-dmin", "4", "-dmax", "2"},
		{"-in", path, "-points", "0"},
		{"-in", path, "-grid", "bogus"},
		{"-in", path, "-no-sbo", "-no-rls"},
		{"-in", filepath.Join(t.TempDir(), "missing.json")},
	}
	for _, args := range cases {
		if err := runSweep(args, &buf); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// writeInstanceDir writes k distinct JSON instances into a fresh
// directory and returns it.
func writeInstanceDir(t *testing.T, k int) string {
	t.Helper()
	dir := t.TempDir()
	for i := 0; i < k; i++ {
		in := sched.GenUniform(12+i, 2, int64(i+1))
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("inst%02d.json", i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := in.WriteJSON(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return dir
}

// decodeLines parses every JSONL line of the sweepbatch output.
func decodeLines(t *testing.T, out string) []map[string]any {
	t.Helper()
	var lines []map[string]any
	for _, ln := range strings.Split(strings.TrimSpace(out), "\n") {
		if ln == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", ln, err)
		}
		lines = append(lines, m)
	}
	return lines
}

func TestRunSweepBatchDirectory(t *testing.T) {
	dir := writeInstanceDir(t, 3)
	var buf strings.Builder
	err := runSweepBatch([]string{"-in", dir, "-dmin", "0.5", "-dmax", "8", "-points", "8"}, nil, &buf)
	if err != nil {
		t.Fatalf("sweepbatch: %v", err)
	}
	lines := decodeLines(t, buf.String())
	if len(lines) != 3 {
		t.Fatalf("%d output lines, want 3:\n%s", len(lines), buf.String())
	}
	for i, m := range lines {
		if m["source"] != fmt.Sprintf("inst%02d.json", i) {
			t.Errorf("line %d source = %v (input order must be preserved)", i, m["source"])
		}
		if int(m["index"].(float64)) != i {
			t.Errorf("line %d index = %v", i, m["index"])
		}
		if _, ok := m["error"]; ok {
			t.Errorf("line %d unexpectedly failed: %v", i, m["error"])
		}
		if front, ok := m["front"].([]any); !ok || len(front) == 0 {
			t.Errorf("line %d has no front points: %v", i, m["front"])
		}
		if m["cmax_lb"] == nil || m["mmax_lb"] == nil {
			t.Errorf("line %d missing lower bounds", i)
		}
	}
}

func TestRunSweepBatchJSONLWithBadLine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "batch.jsonl")
	var sb strings.Builder
	for i := 0; i < 2; i++ {
		var one bytes.Buffer
		if err := sched.GenUniform(10, 2, int64(i+1)).WriteJSON(&one); err != nil {
			t.Fatal(err)
		}
		sb.WriteString(strings.ReplaceAll(one.String(), "\n", "") + "\n")
	}
	sb.WriteString("{not json}\n")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	var buf strings.Builder
	err := runSweepBatch([]string{"-in", path, "-points", "4", "-dmin", "1", "-dmax", "4"}, nil, &buf)
	if err == nil {
		t.Fatal("batch with a bad line reported success")
	}
	if !strings.Contains(err.Error(), "1 of 3") {
		t.Errorf("error %q does not count the failure", err)
	}
	lines := decodeLines(t, buf.String())
	if len(lines) != 3 {
		t.Fatalf("%d output lines, want 3 (bad line must fail alone)", len(lines))
	}
	if _, ok := lines[2]["error"]; !ok {
		t.Errorf("bad line produced no error record: %v", lines[2])
	}
	for i := 0; i < 2; i++ {
		if _, ok := lines[i]["error"]; ok {
			t.Errorf("good line %d failed: %v", i, lines[i]["error"])
		}
	}
}

func TestRunSweepBatchStdinAndOutFile(t *testing.T) {
	// stdin is a stream of concatenated JSON values — indented
	// documents exactly as geninstance pipes them, no JSONL
	// flattening required.
	var stream bytes.Buffer
	for seed := int64(5); seed <= 6; seed++ {
		if err := sched.GenUniform(10, 2, seed).WriteJSON(&stream); err != nil {
			t.Fatal(err)
		}
	}
	outPath := filepath.Join(t.TempDir(), "fronts.jsonl")
	var buf strings.Builder
	err := runSweepBatch([]string{"-out", outPath, "-points", "4", "-dmin", "1", "-dmax", "4"}, &stream, &buf)
	if err != nil {
		t.Fatalf("sweepbatch via stdin: %v", err)
	}
	if buf.Len() != 0 {
		t.Errorf("-out set but stdout written: %q", buf.String())
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := decodeLines(t, string(data))
	if len(lines) != 2 || lines[0]["source"] != "stdin:1" || lines[1]["source"] != "stdin:2" {
		t.Fatalf("unexpected output: %v", lines)
	}
}

func TestRunSweepBatchStdinGarbageValue(t *testing.T) {
	var stream bytes.Buffer
	if err := sched.GenUniform(10, 2, 7).WriteJSON(&stream); err != nil {
		t.Fatal(err)
	}
	stream.WriteString("{broken\n")
	var buf strings.Builder
	err := runSweepBatch([]string{"-points", "4", "-dmin", "1", "-dmax", "4"}, &stream, &buf)
	if err == nil {
		t.Fatal("garbage stdin value reported success")
	}
	lines := decodeLines(t, buf.String())
	if len(lines) != 2 {
		t.Fatalf("%d output lines, want 2 (good value + error record):\n%s", len(lines), buf.String())
	}
	if _, ok := lines[0]["error"]; ok {
		t.Errorf("good value failed: %v", lines[0]["error"])
	}
	if _, ok := lines[1]["error"]; !ok {
		t.Errorf("garbage value produced no error record: %v", lines[1])
	}
}

func TestRunSweepBatchRejectsBadInputs(t *testing.T) {
	dir := writeInstanceDir(t, 1)
	var buf strings.Builder
	cases := [][]string{
		{"-in", dir, "-dmin", "0"},
		{"-in", dir, "-dmin", "4", "-dmax", "2"},
		{"-in", dir, "-points", "0"},
		{"-in", dir, "-grid", "bogus"},
		{"-in", dir, "-no-sbo", "-no-rls"},
		{"-in", filepath.Join(t.TempDir(), "missing")},
		{"-in", t.TempDir()}, // no *.json files
		{"-in", dir, "-refine", "-refine-gap", "-0.5"},
		{"-in", dir, "-refine", "-refine-max-points", "-2"},
	}
	for _, args := range cases {
		if err := runSweepBatch(args, strings.NewReader(""), &buf); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	path := writeInstance(t)
	old := os.Stdout
	null, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = null
	defer func() { os.Stdout = old; null.Close() }()

	if err := run(path, "bogus", 1, "spt", -1, false, 40); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := run(path, "rls", 3, "bogus", -1, false, 40); err == nil {
		t.Error("unknown tie-break accepted")
	}
	if err := run(path, "constrained", 1, "spt", -1, false, 40); err == nil {
		t.Error("constrained without budget accepted")
	}
	if err := run(filepath.Join(t.TempDir(), "missing.json"), "sbo", 1, "spt", -1, false, 40); err == nil {
		t.Error("missing file accepted")
	}
}

// writeGraph writes a small task DAG as *.graph.json into dir.
func writeGraph(t *testing.T, dir, name string) string {
	t.Helper()
	g := sched.NewGraph(2,
		[]sched.Time{4, 3, 5, 2},
		[]sched.Mem{2, 1, 3, 2})
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := g.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunSweepBatchMixedGraphDirectory sweeps a directory mixing
// instance files with a *.graph.json DAG: both kinds must stream
// through one batch, in name order, the graph line carrying its edge
// count and an RLS-only front.
func TestRunSweepBatchMixedGraphDirectory(t *testing.T) {
	dir := writeInstanceDir(t, 2)
	writeGraph(t, dir, "apipeline.graph.json")
	var buf strings.Builder
	err := runSweepBatch([]string{"-in", dir, "-dmin", "0.5", "-dmax", "8", "-points", "8"}, nil, &buf)
	if err != nil {
		t.Fatalf("sweepbatch: %v", err)
	}
	lines := decodeLines(t, buf.String())
	if len(lines) != 3 {
		t.Fatalf("%d output lines, want 3:\n%s", len(lines), buf.String())
	}
	// Glob order: apipeline.graph.json sorts before inst*.json.
	if lines[0]["source"] != "apipeline.graph.json" {
		t.Fatalf("line 0 source = %v", lines[0]["source"])
	}
	if _, ok := lines[0]["error"]; ok {
		t.Fatalf("graph item failed: %v", lines[0]["error"])
	}
	if int(lines[0]["edges"].(float64)) != 2 {
		t.Errorf("graph line edges = %v, want 2", lines[0]["edges"])
	}
	if front, ok := lines[0]["front"].([]any); !ok || len(front) == 0 {
		t.Errorf("graph line has no front points: %v", lines[0]["front"])
	}
	for i := 1; i <= 2; i++ {
		if _, ok := lines[i]["error"]; ok {
			t.Errorf("instance line %d failed: %v", i, lines[i]["error"])
		}
		if _, ok := lines[i]["edges"]; ok {
			t.Errorf("instance line %d carries an edge count: %v", i, lines[i])
		}
	}
}

// TestRunSweepBatchSingleGraphFile names one *.graph.json directly.
func TestRunSweepBatchSingleGraphFile(t *testing.T) {
	path := writeGraph(t, t.TempDir(), "dag.graph.json")
	var buf strings.Builder
	err := runSweepBatch([]string{"-in", path, "-dmin", "2", "-dmax", "6", "-points", "4"}, nil, &buf)
	if err != nil {
		t.Fatalf("sweepbatch: %v", err)
	}
	lines := decodeLines(t, buf.String())
	if len(lines) != 1 || lines[0]["source"] != "dag.graph.json" {
		t.Fatalf("unexpected output: %v", lines)
	}
	if front, ok := lines[0]["front"].([]any); !ok || len(front) == 0 {
		t.Errorf("no front points: %v", lines[0]["front"])
	}
}

// TestRunSweepBatchBadGraphFailsAlone checks a malformed graph file is
// one error line, not a batch abort.
func TestRunSweepBatchBadGraphFailsAlone(t *testing.T) {
	dir := writeInstanceDir(t, 1)
	bad := filepath.Join(dir, "bad.graph.json")
	if err := os.WriteFile(bad, []byte(`{"m":2,"tasks":[{"p":1,"s":0}],"edges":[[0,7]]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	err := runSweepBatch([]string{"-in", dir, "-dmin", "2", "-dmax", "4", "-points", "2"}, nil, &buf)
	if err == nil {
		t.Fatal("batch with a bad graph reported success")
	}
	lines := decodeLines(t, buf.String())
	if len(lines) != 2 {
		t.Fatalf("%d output lines, want 2:\n%s", len(lines), buf.String())
	}
	if _, ok := lines[0]["error"]; !ok {
		t.Errorf("bad graph produced no error record: %v", lines[0])
	}
	if _, ok := lines[1]["error"]; ok {
		t.Errorf("good instance failed: %v", lines[1]["error"])
	}
}
