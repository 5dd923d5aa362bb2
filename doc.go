// Package repro is a from-scratch Go reproduction of "Distributed
// Cross-Channel Hierarchical Aggregation for Foundation Models" (Tsaris et
// al., SC 2025): the D-CHAG method itself (internal/core), the substrates it
// needs — tensors, neural layers, collectives, tensor/data/fully-sharded
// parallelism, synthetic scientific datasets — and an analytic Frontier
// performance model that regenerates every figure of the paper's evaluation.
//
// See README.md for the layout and quickstart, DESIGN.md for the system
// inventory and substitution rationale, and EXPERIMENTS.md for
// paper-versus-measured results; `dchag-bench -fig` regenerates each figure.
package repro
