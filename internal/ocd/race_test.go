//go:build race

package ocd

// Built only under -race: see raceEnabled in serving_bench_test.go.
func init() { raceEnabled = true }
