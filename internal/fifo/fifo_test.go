package fifo

import (
	"fmt"
	"slices"
	"testing"
)

// op is one step of a policy script: put key at cost (cost > 0), or drop
// key (cost < 0).
type op struct {
	key  string
	cost int64
}

func put(k string, c int64) op { return op{k, c} }
func drop(k string) op         { return op{k, -1} }

// order returns the held keys with their costs, oldest first.
func order(s *Store[string, int64]) (keys []string) {
	s.Each(func(k string, cost int64) { keys = append(keys, fmt.Sprint(k, ":", cost)) })
	return keys
}

// check holds the store to its invariants: Held within Budget, Held the
// sum of the held entries' costs (each value is its entry's cost), Get and
// Each agreeing on what is held.
func check(t *testing.T, step string, s *Store[string, int64]) {
	t.Helper()
	st := s.Stats()
	var sum int64
	n := 0
	s.Each(func(k string, cost int64) {
		sum += cost
		n++
		if v, ok := s.Get(k); !ok || v != cost {
			t.Fatalf("%s: Each visits %s:%d, Get says %d, %v", step, k, cost, v, ok)
		}
	})
	if st.Held > st.Budget || st.Held != sum || st.Entries != n {
		t.Fatalf("%s: stats %+v over %d entries costing %d", step, st, n, sum)
	}
}

// TestPolicy is the one statement of the eviction rule the plan memo and
// the row cache share. Budget 10 throughout. A Put's evictions are read
// off the store: every other key it held before and not after, oldest
// first, then the key just put if it went too.
func TestPolicy(t *testing.T) {
	for _, tc := range []struct {
		name      string
		ops       []op
		want      []string // held afterwards, oldest first
		evicted   []string // in eviction order
		evictions uint64
	}{
		{"first in first out",
			[]op{put("a", 4), put("b", 4), put("c", 4), put("d", 4)},
			[]string{"c:4", "d:4"}, []string{"a", "b"}, 2},
		{"recharge keeps age",
			[]op{put("a", 2), put("b", 2), put("a", 3), put("c", 6)},
			[]string{"b:2", "c:6"}, []string{"a"}, 1},
		{"recharge downwards frees room",
			[]op{put("a", 6), put("b", 4), put("a", 1), put("c", 5)},
			[]string{"a:1", "b:4", "c:5"}, nil, 0},
		{"newest spared while anything else can go",
			[]op{put("a", 3), put("b", 3), put("c", 3), put("a", 9)},
			[]string{"a:9"}, []string{"b", "c"}, 2},
		{"sole oversize dropped, after everything else",
			[]op{put("a", 3), put("b", 3), put("c", 11)},
			nil, []string{"a", "b", "c"}, 3},
		{"oversize recharge of the only entry",
			[]op{put("a", 3), put("a", 11)},
			nil, []string{"a"}, 1},
		{"drop is not an eviction, and a dropped key ages anew",
			[]op{put("a", 3), put("b", 3), drop("a"), drop("nobody"), put("a", 3), put("c", 3), put("d", 3)},
			[]string{"a:3", "c:3", "d:3"}, []string{"b"}, 1},
		{"an evicted key ages anew",
			[]op{put("a", 5), put("b", 5), put("c", 5), put("a", 5)},
			[]string{"c:5", "a:5"}, []string{"a", "b"}, 2},
		{"exactly the budget fits",
			[]op{put("a", 5), put("b", 5)},
			[]string{"a:5", "b:5"}, nil, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var evicted []string
			s := New[string, int64](10)
			for i, o := range tc.ops {
				step := fmt.Sprintf("step %d %+v", i, o)
				if o.cost < 0 {
					_, held := s.Get(o.key)
					if s.Drop(o.key) != held {
						t.Fatalf("%s: Drop reports %v for a key Get reports %v", step, !held, held)
					}
				} else {
					var before []string
					s.Each(func(k string, _ int64) {
						if k != o.key {
							before = append(before, k)
						}
					})
					s.Put(o.key, o.cost, o.cost)
					for _, k := range append(before, o.key) {
						if _, held := s.Get(k); !held {
							evicted = append(evicted, k)
						}
					}
				}
				check(t, step, s)
			}
			if got := order(s); !slices.Equal(got, tc.want) {
				t.Errorf("holds %v, want %v", got, tc.want)
			}
			if !slices.Equal(evicted, tc.evicted) || s.Stats().Evictions != tc.evictions {
				t.Errorf("evicted %v (%d counted), want %v (%d)", evicted, s.Stats().Evictions, tc.evicted, tc.evictions)
			}
		})
	}
}

// TestEachUnderMutation is the walk a renumbering compaction makes over the
// row cache (core's installRemapped): every entry is recharged or dropped
// from inside its own visit. The survivors keep their order, and a
// recharge that evicts entries ahead of the walk does not derail it.
func TestEachUnderMutation(t *testing.T) {
	s := New[string, int64](10)
	for _, k := range []string{"a", "b", "c", "d", "e"} {
		s.Put(k, 2, 2)
	}
	var visited []string
	s.Each(func(k string, _ int64) {
		visited = append(visited, k)
		switch k {
		case "a", "d":
			s.Drop(k)
		case "b":
			s.Put(k, 5, 5) // 5+2+2+2 now a is gone: c goes, the oldest other
		default:
			s.Put(k, 1, 1)
		}
		check(t, "visiting "+k, s)
	})
	if want := []string{"a", "b", "d", "e"}; !slices.Equal(visited, want) {
		t.Errorf("visited %v, want %v", visited, want)
	}
	if got, want := order(s), []string{"b:5", "e:1"}; !slices.Equal(got, want) {
		t.Errorf("holds %v, want %v", got, want)
	}
	// Dropping the tail from inside its visit ends the walk.
	s.Each(func(k string, _ int64) {
		if k == "e" {
			s.Drop(k)
		}
	})
	if got, want := order(s), []string{"b:5"}; !slices.Equal(got, want) {
		t.Errorf("holds %v, want %v", got, want)
	}
}
