package serve

import (
	"reflect"
	"testing"

	"storagesched/internal/engine"
	"storagesched/internal/model"
)

// sameItem reports whether two decoded items are equal: the same
// instance or graph, and the same error text.
func sameItem(a, b engine.BatchItem) bool {
	if (a.Err == nil) != (b.Err == nil) || (a.Err != nil && a.Err.Error() != b.Err.Error()) {
		return false
	}
	return reflect.DeepEqual(a.Instance, b.Instance) && reflect.DeepEqual(a.Graph, b.Graph)
}

// FuzzDecodeItem holds the single-pass instance parser to the
// encoding/json reference path. When model.ParseInstanceJSON accepts
// a document, the reference must decode the same instance under the
// same source label; when it declines, decodeOne's output must be the
// reference's exactly.
func FuzzDecodeItem(f *testing.F) {
	for _, doc := range []string{
		docInstA,
		docInstB,
		`{"m":1,"tasks":[{"p":1,"s":0}]}`,
		`{"tasks":[{"s":3,"p":2},{"p":1}],"m":2}`,
		"{\n  \"m\": 2,\n  \"tasks\": [\n    {\"id\": 0, \"p\": 4, \"s\": 1},\n    {\"id\": 1, \"p\": 3, \"s\": 2}\n  ]\n}\n",
		`{"m":2,"tasks":[]}`,
		`{"m":2}`,
		`{"source":"named.json","item":` + docInstA + `}`,
		`{"item":` + docGraph + `}`,
		docGraph,
		`{"m":2,"tasks":[{"p":1,"s":1}],"edges":[]}`,
		`{"m":2,"tasks":[{"p":1,"s":1}]}`,
		`{"m":2,"tasks":[{"\u0070":1,"s":1}]}`,
		`{"M":2,"tasks":[{"p":1,"s":1}]}`,
		`{"m":2,"Tasks":[{"P":1,"s":1}]}`,
		`{"m":2,"m":3,"tasks":[{"p":1,"s":1}]}`,
		`{"m":2,"tasks":[{"p":1,"p":2,"s":1}]}`,
		`{"m":2,"tasks":[{"p":1.0,"s":1}]}`,
		`{"m":2,"tasks":[{"p":1e3,"s":1}]}`,
		`{"m":2,"tasks":[{"p":9223372036854775807,"s":1}]}`,
		`{"m":2,"tasks":[{"p":9223372036854775808,"s":1}]}`,
		`{"m":2,"tasks":[{"p":-9223372036854775808,"s":1}]}`,
		`{"m":2,"tasks":[{"p":01,"s":1}]}`,
		`{"m":2,"tasks":[{"p":-0,"s":1}]}`,
		`{"m":2,"tasks":[{"p":1,"s":1,"name":"a"}]}`,
		`{"m":2,"tasks":[{"id":1,"p":1,"s":1},{"id":0,"p":1,"s":1}]}`,
		`{"m":0,"tasks":[{"p":1,"s":1}]}`,
		`{"m":2,"tasks":[{"p":0,"s":1}]}`,
		`{"m":2,"tasks":null}`,
		docInstA + ` ` + docInstB,
		docInstA + ` junk`,
		docInstA + `,`,
		`{"m":2,"tasks":[{"p":1,"s":1},]}`,
		`{"m":2,"tasks":[{"p":1,"s":1}]`,
		`[1,2]`,
		`null`,
		``,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const label = "fuzz:1"
		ref, refSource := decodeReference(data, label)
		if in, ok := model.ParseInstanceJSON(data); ok {
			if ref.Err != nil || ref.Graph != nil || !reflect.DeepEqual(ref.Instance, in) || refSource != label {
				t.Fatalf("fast parser accepted %q as %+v; reference decoded %+v (err %v) as %q",
					data, in, ref.Instance, ref.Err, refSource)
			}
		}
		got, source := decodeOne(data, label)
		if !sameItem(got, ref) || source != refSource {
			t.Fatalf("decodeOne(%q) = %+v as %q; reference %+v as %q", data, got, source, ref, refSource)
		}
	})
}
