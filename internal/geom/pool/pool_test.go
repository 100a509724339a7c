package pool

import (
	"testing"
)

func TestArenaSlicesZeroedAndDisjoint(t *testing.T) {
	var a Arena
	x := a.Floats(10)
	y := a.Floats(10)
	for i := range x {
		x[i] = 1
	}
	for i, v := range y {
		if v != 0 {
			t.Fatalf("y[%d] = %v after writing x; slices overlap", i, v)
		}
	}
	a.Reset()
	z := a.Floats(10)
	for i, v := range z {
		if v != 0 {
			t.Fatalf("z[%d] = %v after Reset; hand-outs must be zeroed", i, v)
		}
	}
}

func TestArenaAppendDoesNotBleed(t *testing.T) {
	var a Arena
	x := a.Ints(4)
	y := a.Ints(4)
	x = append(x, 99) // full slice expression: must reallocate, not overwrite y
	_ = x
	for i, v := range y {
		if v != 0 {
			t.Fatalf("y[%d] = %v after append to x", i, v)
		}
	}
}

func TestArenaLargeRequest(t *testing.T) {
	var a Arena
	big := a.Floats(10 * chunkMin)
	if len(big) != 10*chunkMin {
		t.Fatalf("len = %d", len(big))
	}
	for i := range big {
		big[i] = float64(i)
	}
	a.Reset()
	// The big chunk is recycled: the same request must be served without
	// growing, and zeroed.
	big2 := a.Floats(10 * chunkMin)
	for i, v := range big2 {
		if v != 0 {
			t.Fatalf("recycled chunk not zeroed at %d: %v", i, v)
		}
	}
}

func TestRows(t *testing.T) {
	var a Arena
	rows := a.Rows(5, 7)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for r := range rows {
		if len(rows[r]) != 7 {
			t.Fatalf("row %d has %d cols", r, len(rows[r]))
		}
		for c := range rows[r] {
			rows[r][c] = float64(r*7 + c)
		}
	}
	// Distinct rows must not alias.
	for r := range rows {
		for c := range rows[r] {
			if rows[r][c] != float64(r*7+c) {
				t.Fatalf("rows alias: [%d][%d] = %v", r, c, rows[r][c])
			}
		}
	}
}

func TestArenaSteadyStateNoAllocations(t *testing.T) {
	var a Arena
	workload := func() {
		_ = a.Floats(100)
		_ = a.Ints(50)
		_ = a.Bools(50)
		_ = a.Rows(8, 12)
		a.Reset()
	}
	workload() // warm up the chunks
	allocs := testing.AllocsPerRun(100, workload)
	if allocs > 0 {
		t.Fatalf("steady-state workload allocates %v times per run, want 0", allocs)
	}
}
