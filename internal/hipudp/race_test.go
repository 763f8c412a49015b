//go:build race

package hipudp

// Under the race detector sync.Pool discards a random share of its puts, so
// a pooled frame is sometimes a fresh slab and an allocation count reads
// above the path's own.
func init() { poolSlack = 1 }
