package scu

import (
	"reflect"
	"testing"
)

// TestStatsTable pins the field table as the single source of truth: it
// must cover every field of Stats exactly once, and the indexed and
// callback views must agree with direct field access.
func TestStatsTable(t *testing.T) {
	if NumStats() != reflect.TypeOf(Stats{}).NumField() {
		t.Fatalf("statsFields has %d entries, Stats has %d fields — table out of sync",
			NumStats(), reflect.TypeOf(Stats{}).NumField())
	}
	var names []string
	for _, f := range statsFields {
		names = append(names, f.name)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate counter name %q", n)
		}
		seen[n] = true
	}
	// Distinct values per index prove each accessor reaches a distinct
	// field.
	var s Stats
	for i := 0; i < NumStats(); i++ {
		s.SetValue(i, uint64(i+1))
	}
	for i := 0; i < NumStats(); i++ {
		if s.Value(i) != uint64(i+1) {
			t.Fatalf("Value(%d) = %d", i, s.Value(i))
		}
	}
	if s.WordsSent != 1 || s.LinkFailures != uint64(NumStats()) {
		t.Fatalf("table order drifted: first %d last %d", s.WordsSent, s.LinkFailures)
	}
	// Each visits in table order with matching values.
	i := 0
	s.Each(func(name string, v uint64) {
		if name != names[i] || v != uint64(i+1) {
			t.Fatalf("Each[%d] = (%s, %d), want (%s, %d)", i, name, v, names[i], i+1)
		}
		i++
	})
	// Add is field-wise.
	var sum Stats
	sum.Add(&s)
	sum.Add(&s)
	for i := 0; i < NumStats(); i++ {
		if sum.Value(i) != 2*uint64(i+1) {
			t.Fatalf("Add: field %d = %d", i, sum.Value(i))
		}
	}
}
