// Package bench regenerates every table and figure of the paper's
// evaluation (§5) plus the motivation figures (§2.3) and four design
// ablations. Each experiment prints the same rows/series the paper
// reports; EXPERIMENTS.md records the expected shapes and the measured
// outcomes. cmd/rmmap-bench and bench_test.go are thin wrappers around
// this package.
//
// Invariants:
//
//   - Experiments are deterministic: a fixed scale yields byte-identical
//     JSON reports and observability artifacts (the golden tests in this
//     package run the fig14 WordCount cell twice and diff the bytes).
//   - Fig 14 rows carry a per-simtime-category breakdown whose sum is at
//     least the critical-path latency (parallelism can only raise total
//     work).
//   - Scaling down (the -scale flag) shrinks inputs, never skips pipeline
//     stages, so CI smoke runs cover the same code paths as full runs.
//   - Every engine an experiment builds starts from RunConfig.Options(),
//     so rmmap-bench's -workers and -ctrl-shards reach every arm of every
//     ablation (TestNoOptionsLiteralBypassesRunConfig checks the source).
package bench
