package serve

import (
	"strings"
	"testing"

	"storagesched/internal/engine"
)

// collect drains a decoded sequence into parallel slices.
func collect(seq func(func(engine.BatchItem, string) bool)) (items []engine.BatchItem, sources []string) {
	seq(func(it engine.BatchItem, src string) bool {
		items = append(items, it)
		sources = append(sources, src)
		return true
	})
	return
}

// TestDecodeItemsKinds: instances, graphs (selected by "edges") and
// envelopes (selected by "item", optionally naming their source) all
// decode from one concatenated stream, with positional labels filling
// in for anonymous documents.
func TestDecodeItemsKinds(t *testing.T) {
	in := docInstA + "\n" +
		docGraph + "\n" +
		`{"source":"named.json","item":` + docInstB + "}\n" +
		`{"item":` + docGraph + "}\n"
	items, sources := collect(DecodeItems("body", strings.NewReader(in), nil))
	if len(items) != 4 {
		t.Fatalf("%d items, want 4", len(items))
	}
	wantSources := []string{"body:1", "body:2", "named.json", "body:4"}
	for i, want := range wantSources {
		if sources[i] != want {
			t.Errorf("item %d source = %q, want %q", i, sources[i], want)
		}
	}
	for i, wantGraph := range []bool{false, true, false, true} {
		if items[i].Err != nil {
			t.Errorf("item %d: unexpected error %v", i, items[i].Err)
		}
		if gotGraph := items[i].Graph != nil; gotGraph != wantGraph {
			t.Errorf("item %d: graph=%v, want %v", i, gotGraph, wantGraph)
		}
	}
}

// TestDecodeItemsPoisoning: a syntactically broken document ends the
// stream with one error item (no line boundary to resynchronize on),
// while a well-formed document that fails validation rides its error
// and the stream continues.
func TestDecodeItemsPoisoning(t *testing.T) {
	in := docInstA + "\n" + `{"m":0,"tasks":[]}` + "\n" + docInstB + "\n" + "{broken\n" + docGraph + "\n"
	items, sources := collect(DecodeItems("stdin", strings.NewReader(in), nil))
	if len(items) != 4 {
		t.Fatalf("%d items, want 4 (two good, one invalid, one poison)", len(items))
	}
	if items[0].Err != nil || items[2].Err != nil {
		t.Errorf("good items carried errors: %v, %v", items[0].Err, items[2].Err)
	}
	if items[1].Err == nil {
		t.Error("invalid instance (m=0) decoded without error")
	}
	last := items[3]
	if last.Err == nil || !strings.Contains(last.Err.Error(), "stdin value 4:") {
		t.Errorf("poison item error = %v, want 'stdin value 4: ...'", last.Err)
	}
	if sources[3] != "stdin:4" {
		t.Errorf("poison source = %q, want stdin:4", sources[3])
	}
}

// TestDecodeJSONLItemsIsolation: with line framing, a bad line fails
// alone — subsequent lines still decode, and labels count physical
// lines (blank lines skipped but counted).
func TestDecodeJSONLItemsIsolation(t *testing.T) {
	in := docInstA + "\n\n{broken\n" + docInstB + "\n"
	items, sources := collect(DecodeJSONLItems("batch.jsonl", strings.NewReader(in), nil))
	if len(items) != 3 {
		t.Fatalf("%d items, want 3", len(items))
	}
	if items[0].Err != nil || items[2].Err != nil {
		t.Errorf("good lines carried errors: %v, %v", items[0].Err, items[2].Err)
	}
	// The error text is the instance reader's, as it was before lines
	// with trailing data were checked.
	if items[1].Err == nil || !strings.HasPrefix(items[1].Err.Error(), "batch.jsonl:3: model: decoding instance: ") {
		t.Errorf("broken line error = %v, want the instance reader's", items[1].Err)
	}
	want := []string{"batch.jsonl:1", "batch.jsonl:3", "batch.jsonl:4"}
	for i, w := range want {
		if sources[i] != w {
			t.Errorf("source %d = %q, want %q", i, sources[i], w)
		}
	}
}

// TestDecodeJSONLItemsTrailingData: a line holding a document followed
// by more data fails alone with the syntax error, instead of sweeping
// the first document and dropping the rest; the next line still
// decodes.
func TestDecodeJSONLItemsTrailingData(t *testing.T) {
	for _, tc := range []struct {
		name, line, wantErr string
	}{
		{"second document", docInstA + " " + docInstB, "batch.jsonl:1: invalid character '{' after top-level value"},
		{"junk", docInstA + " junk", "batch.jsonl:1: invalid character 'j' after top-level value"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			items, sources := collect(DecodeJSONLItems("batch.jsonl", strings.NewReader(tc.line+"\n"+docInstB+"\n"), nil))
			if len(items) != 2 {
				t.Fatalf("%d items, want 2", len(items))
			}
			if items[0].Err == nil || items[0].Err.Error() != tc.wantErr {
				t.Errorf("line 1 error = %v, want %q", items[0].Err, tc.wantErr)
			}
			if items[0].Instance != nil || items[0].Graph != nil {
				t.Error("line 1 carried a decoded item beside its error")
			}
			if items[1].Err != nil || items[1].Instance == nil {
				t.Errorf("line 2: instance %v, error %v; want a clean instance", items[1].Instance, items[1].Err)
			}
			if sources[0] != "batch.jsonl:1" || sources[1] != "batch.jsonl:2" {
				t.Errorf("sources = %q", sources)
			}
		})
	}
}
