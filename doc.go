// Package gplus reproduces "New Kid on the Block: Exploring the Google+
// Social Graph" (Magno, Comarela, Saez-Trumper, Cha, Almeida — IMC 2012)
// as a Go library: a calibrated synthetic Google+ service, the paper's
// bidirectional BFS crawler, and the full analysis suite behind every
// table and figure of the study.
//
// The root package holds the repository's gates and its crawl
// experiments: TestExperimentsGenerated runs `make experiments` and
// holds EXPERIMENTS.md's generated block to its output byte for byte,
// hygiene_test.go holds the recipe, heading, package, surface, label
// and JSON gates, and the benchmarks are the ablations, the
// seed-sensitivity and lost-edge crawls (`make ablations`) and the
// serving hot path. Every table and figure is printed by
// cmd/gplusanalyze. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-versus-measured results.
package gplus
