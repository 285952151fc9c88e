// Package immersionoc is a reproduction of "Cost-Efficient
// Overclocking in Immersion-Cooled Datacenters" (Jalili et al.,
// ISCA 2021): calibrated models of two-phase immersion cooling,
// sustained overclocking and its power/lifetime/stability costs, and
// the control-plane systems the paper builds on top — an
// overclocking governor, an overclocking-enhanced VM auto-scaler,
// oversubscription-based dense packing, virtual failover buffers, and
// the TCO analysis.
//
// The library lives under internal/; the runnable surfaces are the
// cmd/ tools (octl regenerates every table and figure), the
// examples/quickstart walkthrough of the governor API, and the
// root-level benchmarks in bench_test.go. See README.md, DESIGN.md and
// EXPERIMENTS.md.
package immersionoc
