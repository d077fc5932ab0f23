//go:build race

package client

// The race detector makes sync.Pool drop a share of what is put back, so
// allocation counts are not meaningful under it.
func init() { raceEnabled = true }
