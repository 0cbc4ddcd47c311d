package core

import (
	"testing"

	"repro/internal/fifo"
	"repro/internal/vcp"
)

// TestVCPCacheEviction checks that the row cache stays bounded: with a
// budget of one row, querying two different procedures must trigger
// eviction and end holding the last row published.
func TestVCPCacheEviction(t *testing.T) {
	db := NewDB(Options{VCP: vcp.Config{MinVars: 3}})
	for _, src := range []string{iccStyle, unrelated} {
		if err := db.AddTarget(parse(t, src)); err != nil {
			t.Fatal(err)
		}
	}
	width := int64(db.NumUniqueStrands())
	db.rows = fifo.New[string, *vcpRow](width, nil)
	if _, err := db.Query(parse(t, gccStyle)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(parse(t, unrelated)); err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	if c := s.VCPCache; c.Evictions == 0 || c.Budget != width || c.Held != width || c.Entries != 1 {
		t.Fatalf("cache reads %+v, want evictions and the one %d-wide row its budget has room for", c, width)
	}
}

// TestVCPCacheRoomy checks that under the production budget nothing is
// evicted and every row of the query is held.
func TestVCPCacheRoomy(t *testing.T) {
	db := NewDB(Options{VCP: vcp.Config{MinVars: 3}})
	for _, src := range []string{iccStyle, unrelated} {
		if err := db.AddTarget(parse(t, src)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Query(parse(t, gccStyle)); err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	if c := s.VCPCache; c.Evictions != 0 || c.Budget != rowCachePairs {
		t.Fatalf("unexpected evictions or budget: %+v", c)
	}
	if c := s.VCPCache; c.Held == 0 || c.Held != int64(c.Entries*db.NumUniqueStrands()) {
		t.Fatalf("cache did not populate with full-width rows: %+v", c)
	}
}

// TestQueryAfterEvictionDeterministic checks that eviction never changes
// scores, only recomputation cost.
func TestQueryAfterEvictionDeterministic(t *testing.T) {
	bounded := NewDB(Options{VCP: vcp.Config{MinVars: 3}})
	bounded.rows = fifo.New[string, *vcpRow](1, nil) // below one row: nothing is ever kept
	unbounded := NewDB(Options{VCP: vcp.Config{MinVars: 3}})
	for _, src := range []string{iccStyle, unrelated} {
		if err := bounded.AddTarget(parse(t, src)); err != nil {
			t.Fatal(err)
		}
		if err := unbounded.AddTarget(parse(t, src)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		rb, err := bounded.Query(parse(t, gccStyle))
		if err != nil {
			t.Fatal(err)
		}
		ru, err := unbounded.Query(parse(t, gccStyle))
		if err != nil {
			t.Fatal(err)
		}
		for j := range rb.Results {
			if rb.Results[j].GES != ru.Results[j].GES {
				t.Fatalf("iteration %d: bounded GES %v != unbounded %v",
					i, rb.Results[j].GES, ru.Results[j].GES)
			}
		}
	}
}
