package serve

import (
	"math"
	"net/url"
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

// FuzzSweepSpecFromQuery holds the /v1/sweep query parser to the
// per-request caps: for any raw query it either refuses or returns a
// spec with at most MaxQueryPoints δ values, all finite and positive,
// and with refine-max-points and pending at most MaxQueryPoints. The
// query is parsed as the server's r.URL.Query() parses it, keeping
// whatever pairs decode.
func FuzzSweepSpecFromQuery(f *testing.F) {
	for _, q := range []string{
		"",
		"dmin=0.5&dmax=8&points=6",
		"dmin=0.5&dmax=8&points=6&refine=1&refine-gap=0.05&refine-max-points=6",
		"points=4096&grid=lin",
		"points=4097",
		"points=-1",
		"points=0",
		"dmin=1e-300&dmax=1e300&points=4096",
		"dmin=5e-324&dmax=1.7976931348623157e308&points=3",
		"dmin=0&dmax=8",
		"dmin=NaN",
		"dmax=+Inf",
		"dmin=8&dmax=0.5",
		"grid=spiral",
		"no-sbo=1&no-rls=true",
		"pending=4096",
		"pending=4097",
		"pending=1099511627776",
		"pending=-9223372036854775808",
		"refine-max-points=4097",
		"refine-max-points=-5",
		"refine-gap=-1",
		"points=3;dmin=1",
		"points=%zz",
		"points=6&points=7",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw)
		spec, err := sweepSpecFromQuery(q)
		if err != nil {
			return
		}
		if len(spec.Deltas) > MaxQueryPoints {
			t.Fatalf("query %q: %d deltas, above the cap of %d", raw, len(spec.Deltas), MaxQueryPoints)
		}
		for i, d := range spec.Deltas {
			if !(d > 0) || math.IsInf(d, 0) {
				t.Fatalf("query %q: delta[%d] = %g, want finite and > 0", raw, i, d)
			}
		}
		if spec.RefineMaxPoints > MaxQueryPoints || spec.MaxPending > MaxQueryPoints {
			t.Fatalf("query %q: refine-max-points %d, pending %d; cap %d", raw, spec.RefineMaxPoints, spec.MaxPending, MaxQueryPoints)
		}
	})
}
