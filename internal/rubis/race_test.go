//go:build race

package rubis

// Under the race detector sync.Pool discards a random share of its puts, so
// a pooled buffer is sometimes a fresh slab and an allocation count reads
// above the path's own.
func init() { raceBuild = true }
