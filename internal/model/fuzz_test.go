package model_test

// Native fuzz target for the instance JSON reader, which is fed
// untrusted files by schedcli. The contract under fuzzing: never
// panic, and every accepted instance must survive the canonical
// round trip — re-encoding and re-reading it yields the same
// canonical cache serialization, so content-addressed keys are stable
// across a decode/encode cycle.

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"storagesched/internal/cache"
	"storagesched/internal/model"
)

// seedCorpus feeds every committed *.json under the smoke testdata
// (shared with the schedcli golden tests) plus inline edge cases.
func seedCorpus(f *testing.F, literals []string) {
	f.Helper()
	names, err := filepath.Glob(filepath.Join("..", "..", "cmd", "schedcli", "testdata", "smoke", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, lit := range literals {
		f.Add([]byte(lit))
	}
}

func FuzzReadInstanceJSON(f *testing.F) {
	seedCorpus(f, []string{
		`{"m":1,"tasks":[{"p":1,"s":0}]}`,
		`{"m":0,"tasks":[]}`,
		`{"m":2,"tasks":[{"id":1,"p":3,"s":1},{"id":0,"p":2,"s":2}]}`,
		`{"m":2,"tasks":[{"p":-1,"s":-1}]}`,
		`{"m":1,"tasks":[{"p":9223372036854775807,"s":9223372036854775807}]}`,
		`not json`,
		`{}`,
		`{"m":3}`,
		`{"m":3,"tasks":null}`,
		`{"m":2,"tasks":[{"p":1,"s":1}]} {"m":2,"tasks":[]}`,
		`{"m":2,"tasks":[{"p":1.5,"s":1}]}`,
		`{"m":2,"tasks":[{"p":1,"s":1,"name":"a"}]}`,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		fast, ok := model.ParseInstanceJSON(data)
		in, err := model.ReadInstanceJSON(bytes.NewReader(data))
		if ok && (err != nil || !reflect.DeepEqual(fast, in)) {
			t.Fatalf("ParseInstanceJSON accepted %q as %+v; ReadInstanceJSON: %+v, %v", data, fast, in, err)
		}
		if err != nil {
			return // rejected input; only panics are failures
		}
		canonical := cache.CanonicalInstance(in)

		var buf bytes.Buffer
		if err := in.WriteJSON(&buf); err != nil {
			t.Fatalf("accepted instance failed to encode: %v", err)
		}
		if !slices.ContainsFunc(in.Tasks, func(t model.Task) bool { return t.Name != "" }) {
			// The encoder's own output is canonical: it must take the
			// fast path.
			if fast, ok := model.ParseInstanceJSON(buf.Bytes()); !ok || !reflect.DeepEqual(fast, in) {
				t.Fatalf("ParseInstanceJSON on WriteJSON output %q: %+v, ok=%v; want %+v", buf.Bytes(), fast, ok, in)
			}
		}
		again, err := model.ReadInstanceJSON(&buf)
		if err != nil {
			t.Fatalf("re-encoded instance rejected: %v\ninput: %q", err, data)
		}
		if got := cache.CanonicalInstance(again); !bytes.Equal(got, canonical) {
			t.Fatalf("canonical serialization not stable across a round trip:\n first: %q\nsecond: %q\ninput: %q",
				canonical, got, data)
		}
	})
}

// TestParseInstanceJSONScope pins which documents take the single-pass
// parser. Canonical documents in any key order and layout must, or the
// fast path silently stops being taken; everything else must decline,
// leaving its decode — and its error text — to ReadInstanceJSON.
func TestParseInstanceJSONScope(t *testing.T) {
	for _, tc := range []struct {
		doc    string
		accept bool
	}{
		{`{"m":2,"tasks":[{"id":0,"p":4,"s":1},{"id":1,"p":3,"s":2}]}`, true},
		{`{"m":2,"tasks":[{"p":4,"s":1},{"p":3}]}`, true},
		{"\n {\"tasks\" : [ {\"s\":1 , \"p\":4} ] ,\r\n\t\"m\":1 } \n", true},
		{`{"m":1,"tasks":[]}`, true},
		{`{"m":1}`, true},
		{`{"m":1,"tasks":[{}]}`, false}, // p = 0 fails Validate
		{`{"m":2,"tasks":[{"p":-0,"s":0}]}`, false},
		{`{"m":1,"tasks":[{"p":9223372036854775807,"s":0}]}`, true},
		{`{"m":1,"tasks":[{"p":9223372036854775808,"s":0}]}`, false},
		{`{"m":1,"tasks":[{"p":1,"s":-9223372036854775807}]}`, false},
		{`{"m":1,"tasks":[{"p":1.0,"s":0}]}`, false},
		{`{"m":1,"tasks":[{"p":1e2,"s":0}]}`, false},
		{`{"m":1,"tasks":[{"p":01,"s":0}]}`, false},
		{`{"m":1,"tasks":[{"p":"1","s":0}]}`, false},
		{`{"m":1,"tasks":[{"p":1,"s":0,"name":"x"}]}`, false},
		{`{"m":1,"tasks":[{"\u0070":1,"s":0}]}`, false},
		{`{"M":1,"tasks":[{"p":1,"s":0}]}`, false},
		{`{"m":1,"m":1,"tasks":[{"p":1,"s":0}]}`, false},
		{`{"m":1,"tasks":[{"p":1,"p":1,"s":0}]}`, false},
		{`{"m":1,"tasks":[],"tasks":[]}`, false},
		{`{"m":1,"tasks":[{"p":1,"s":0}],"edges":[]}`, false},
		{`{"m":1,"edges":[],"tasks":[{"p":1,"s":0}]}`, false},
		{`{"source":"a","item":{"m":1,"tasks":[]}}`, false},
		{`{"m":1,"tasks":null}`, true},
		{`{"m":1,"tasks":nul}`, false},
		{`{"m":1,"tasks":nullx}`, false},
		{`{"m":1,"tasks":[{"p":1,"s":0},]}`, false},
		{`{"m":1,"tasks":[{"p":1,"s":0}]} {}`, false},
		{`{"m":1,"tasks":[{"p":1,"s":0}]} x`, false},
		{`{"m":1,"tasks":[{"p":1,"s":0}]`, false},
		{`{"m":1,,"tasks":[]}`, false},
		{`{"m":1 "tasks":[]}`, false},
		{`{"m":-`, false},
		{`[]`, false},
		{``, false},
	} {
		fast, ok := model.ParseInstanceJSON([]byte(tc.doc))
		if ok != tc.accept {
			t.Errorf("ParseInstanceJSON(%q) ok = %v, want %v", tc.doc, ok, tc.accept)
			continue
		}
		if !ok {
			continue
		}
		ref, err := model.ReadInstanceJSON(strings.NewReader(tc.doc))
		if err != nil || !reflect.DeepEqual(fast, ref) {
			t.Errorf("ParseInstanceJSON(%q) = %+v; ReadInstanceJSON: %+v, %v", tc.doc, fast, ref, err)
		}
	}
}

// TestParseInstanceJSONMemoryBound: a document the parser declines
// costs memory in proportion to what it parsed, not to the bytes — and
// in particular not to the braces — after that. A daemon body may hold
// tens of MiB in one string value.
func TestParseInstanceJSONMemoryBound(t *testing.T) {
	braces := strings.Repeat("{", 1<<20)
	for _, doc := range []string{
		`{"m":1,"tasks":[],"x":"` + braces + `"}`,
		`{"m":1,"tasks":[{"p":1,"s":0,"x":"` + braces + `"}]}`,
		`{"m":1,"tasks":[{"p":1,"s":0}],"edges":[],"x":"` + braces + `"}`,
	} {
		data := []byte(doc)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, ok := model.ParseInstanceJSON(data)
		runtime.ReadMemStats(&after)
		if ok {
			t.Fatalf("ParseInstanceJSON accepted %.40q…", doc)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
			t.Errorf("declining %.40q… allocated %d bytes, want at most 64 KiB", doc, n)
		}
	}
}
