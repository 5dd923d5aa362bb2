// Package repro is a from-scratch Go reproduction of "Distributed
// Cross-Channel Hierarchical Aggregation for Foundation Models" (Tsaris et
// al., SC 2025): the D-CHAG method itself (internal/core), the substrates it
// needs — tensors, neural layers, collectives, tensor/data/fully-sharded
// parallelism, synthetic scientific datasets — and an analytic Frontier
// performance model that regenerates every figure of the paper's evaluation.
//
// See DESIGN.md for the system inventory and substitution rationale,
// ROADMAP.md for what is open, and benchmark/README.md for the end-to-end
// benchmark; `dchag-bench -fig` regenerates each figure.
package repro
