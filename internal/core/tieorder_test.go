package core

import (
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"storagesched/internal/dag"
	"storagesched/internal/model"
)

// tieScenario is an instance on which the tie-break orders are
// checked, with the reason it is in the table.
type tieScenario struct {
	name   string
	m      int
	p      []model.Time
	s      []model.Mem
	reason string
}

func tieScenarios() []tieScenario {
	return []tieScenario{
		{
			name:   "equal-p runs",
			m:      2,
			p:      []model.Time{3, 1, 3, 2, 1, 3, 2},
			s:      []model.Mem{2, 5, 1, 4, 3, 2, 6},
			reason: "SPT and LPT both keep ID order inside each run, so SPT is not LPT reversed",
		},
		{
			name:   "all equal p",
			m:      3,
			p:      []model.Time{4, 4, 4, 4, 4},
			s:      []model.Mem{1, 2, 3, 4, 5},
			reason: "one run covering the instance: every order is the ID order",
		},
		{
			name:   "strictly distinct p",
			m:      2,
			p:      []model.Time{5, 1, 4, 2, 3},
			s:      []model.Mem{3, 3, 1, 2, 5},
			reason: "no ties: SPT is exactly LPT reversed",
		},
		{
			name:   "n=0",
			m:      2,
			reason: "empty orders",
		},
		{
			name:   "n=1",
			m:      1,
			p:      []model.Time{7},
			s:      []model.Mem{2},
			reason: "a single task is every order",
		},
	}
}

// referenceOrder is the order each tie-break stood for before it was
// derived from one sort: a stable sort of the identity permutation by
// the tie-break's key, the bottom levels coming from the DAG view.
func referenceOrder(t *testing.T, in *model.Instance, tie TieBreak) []int {
	t.Helper()
	order := make([]int, in.N())
	for i := range order {
		order[i] = i
	}
	p := in.P()
	switch tie {
	case TieByID:
	case TieSPT:
		sort.SliceStable(order, func(a, b int) bool { return p[order[a]] < p[order[b]] })
	case TieLPT:
		sort.SliceStable(order, func(a, b int) bool { return p[order[a]] > p[order[b]] })
	case TieBottomLevel:
		bl, err := dag.FromInstance(in).BottomLevels()
		if err != nil {
			t.Fatal(err)
		}
		sort.SliceStable(order, func(a, b int) bool { return bl[order[a]] > bl[order[b]] })
	default:
		t.Fatalf("no reference for %s", tie)
	}
	return order
}

// TestTieOrdersMatchStableSort: on every scenario, the orders
// PrepareRLSIndependent derives from its single sort, and the DAG
// path's per-tie sorts, equal a stable sort by each tie-break's key;
// and a prepared run equals the unprepared one bit for bit.
func TestTieOrdersMatchStableSort(t *testing.T) {
	ties := []TieBreak{TieByID, TieSPT, TieLPT, TieBottomLevel}
	for _, sc := range tieScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			in := model.NewInstance(sc.m, sc.p, sc.s)
			prep, err := PrepareRLSIndependent(in, ties...)
			if err != nil {
				t.Fatal(err)
			}
			gprep, err := PrepareRLS(dag.FromInstance(in), ties...)
			if err != nil {
				t.Fatal(err)
			}
			for _, tie := range ties {
				want := referenceOrder(t, in, tie)
				if got := prep.orders[tie]; !slices.Equal(got, want) {
					t.Errorf("%s: prepared order %v, want %v (%s)", tie, got, want, sc.reason)
				}
				if got := gprep.ranks[tie]; !slices.Equal(got, rankOf(want)) {
					t.Errorf("%s: DAG ranks %v, want the ranks of order %v", tie, got, want)
				}
				for _, delta := range []float64{2, 3, 5.5} {
					got, err := prep.Run(delta, tie)
					if err != nil {
						t.Fatalf("%s delta=%g: prepared: %v", tie, delta, err)
					}
					ref, err := RLSIndependent(in, delta, tie)
					if err != nil {
						t.Fatalf("%s delta=%g: direct: %v", tie, delta, err)
					}
					if !reflect.DeepEqual(got, ref) {
						t.Errorf("%s delta=%g: prepared %+v, direct %+v", tie, delta, got, ref)
					}
				}
			}
		})
	}
}

// TestIndependentOrdersUnknownTie: an unknown tie-break fails the
// prepare, as it fails the DAG path.
func TestIndependentOrdersUnknownTie(t *testing.T) {
	in := model.NewInstance(2, []model.Time{2, 1}, []model.Mem{1, 1})
	if _, err := PrepareRLSIndependent(in, TieSPT, TieBreak(99)); err == nil {
		t.Error("unknown tie-break accepted")
	}
	if _, err := RLSIndependent(in, 3, TieBreak(99)); err == nil {
		t.Error("unknown tie-break accepted by RLSIndependent")
	}
	// With both the tie and δ bad, the tie is reported: the unprepared
	// calls prepare before they run.
	g := dag.FromInstance(in)
	for _, c := range []struct {
		name string
		call func() (*RLSResult, error)
	}{
		{"RLS", func() (*RLSResult, error) { return RLS(g, 1, TieBreak(99)) }},
		{"RLSIndependent", func() (*RLSResult, error) { return RLSIndependent(in, 1, TieBreak(99)) }},
	} {
		if _, err := c.call(); err == nil || !strings.Contains(err.Error(), "unknown tie break") {
			t.Errorf("%s with bad tie and delta: err %v, want the unknown tie-break", c.name, err)
		}
	}
}
