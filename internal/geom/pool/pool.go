// Package pool provides scratch arenas for the numerical kernels of the
// geometry engine: simplex tableaus, LU factorizations, constraint matrices,
// and the many small index/mask slices the solvers burn through on every
// call. The owner keeps its arena (lp's Workspace embeds one) and reuses it
// across calls.
//
// An Arena is a bump allocator over grow-only chunks. Taking a slice from
// an arena is an append-free slice of a reused backing array (zeroed on
// hand-out), so a solver that previously performed dozens of small
// allocations per call performs none in steady state. Arenas are not
// goroutine-safe. Reset recycles all outstanding allocations at once —
// callers must not retain arena memory across Reset, and must copy anything
// that escapes.
package pool

import "sort"

// chunkMin is the smallest backing chunk allocated; requests larger than
// any free chunk get a dedicated chunk sized for them.
const chunkMin = 1024

// Arena is a bump allocator for float64/int/bool scratch slices and
// [][]float64 row headers. The zero value is ready to use.
type Arena struct {
	floats  chunked[float64]
	ints    chunked[int]
	bools   chunked[bool]
	rowHdrs chunked[[]float64]
}

// chunked is a bump allocator over a set of backing arrays. Chunks consumed
// since the last reset are parked on `used` (their hand-outs must stay
// valid); reset moves them back to `free` for the next generation.
type chunked[T any] struct {
	free [][]T // rewound chunks, largest first
	used [][]T // chunks filled this generation
	cur  []T   // active chunk
	off  int   // bump offset into cur
}

// take returns a zeroed slice of length n with a private capacity (full
// slice expression), so appends by the caller cannot bleed into a
// neighbouring allocation.
func (c *chunked[T]) take(n int) []T {
	if n == 0 {
		return nil
	}
	if c.off+n > len(c.cur) {
		c.grow(n)
	}
	s := c.cur[c.off : c.off+n : c.off+n]
	c.off += n
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s
}

func (c *chunked[T]) grow(n int) {
	if c.cur != nil {
		c.used = append(c.used, c.cur)
		c.cur = nil
	}
	c.off = 0
	for i, ch := range c.free {
		if len(ch) >= n {
			c.cur = ch
			c.free = append(c.free[:i], c.free[i+1:]...)
			return
		}
	}
	size := chunkMin
	for _, ch := range c.used {
		if s := 2 * len(ch); s > size {
			size = s
		}
	}
	if size < n {
		size = n
	}
	c.cur = make([]T, size)
}

func (c *chunked[T]) reset() {
	if c.cur != nil {
		c.used = append(c.used, c.cur)
		c.cur = nil
	}
	c.off = 0
	if len(c.used) > 0 {
		c.free = append(c.free, c.used...)
		c.used = c.used[:0]
	}
	// Largest first, so a repeat of the same workload finds one chunk that
	// fits everything and stays on the no-allocation fast path. A single
	// free chunk (the steady state) skips the sort: sort.Slice boxes its
	// arguments and would put an allocation back into every Reset.
	if len(c.free) > 1 {
		sort.Slice(c.free, func(i, j int) bool { return len(c.free[i]) > len(c.free[j]) })
	}
}

// Floats returns a zeroed []float64 of length n from the arena.
func (a *Arena) Floats(n int) []float64 { return a.floats.take(n) }

// Ints returns a zeroed []int of length n from the arena.
func (a *Arena) Ints(n int) []int { return a.ints.take(n) }

// Bools returns a zeroed []bool of length n from the arena.
func (a *Arena) Bools(n int) []bool { return a.bools.take(n) }

// Rows returns r row headers, each a zeroed float64 slice of length c.
func (a *Arena) Rows(r, c int) [][]float64 {
	rows := a.rowHdrs.take(r)
	for i := range rows {
		rows[i] = a.Floats(c)
	}
	return rows
}

// Reset recycles every allocation taken from the arena since the last
// Reset. Slices handed out earlier must no longer be used.
func (a *Arena) Reset() {
	a.floats.reset()
	a.ints.reset()
	a.bools.reset()
	a.rowHdrs.reset()
}
