package polytope

import "sync/atomic"

// The process-wide hull and combine memo is gone. These three functions stay
// only because the benchmark harness still calls them; the stub goes in the
// benchmark change that drops the geom-cold workload's cold flag (ROADMAP
// items 3 and 7). Nothing reads hullCaching.
var hullCaching atomic.Bool

// SetHullCaching stores on and returns the previous value. It has no effect.
func SetHullCaching(on bool) bool { return hullCaching.Swap(on) }

// HullCacheStats reports zero hits and zero misses.
func HullCacheStats() (hits, misses int64) { return 0, 0 }

// CombineCacheStats reports zero hits and zero misses.
func CombineCacheStats() (hits, misses int64) { return 0, 0 }
