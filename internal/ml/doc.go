// Package ml is a from-scratch machine-learning library covering the seven
// algorithm families MB2 trains OU-models with (Sec 6.4): linear regression,
// Huber regression, support-vector regression, kernel regression, random
// forest, gradient boosting machine, and a multilayer-perceptron neural
// network — plus the train/test split and the best-model selection built on
// it. Everything is deterministic given a seed.
//
// # Concurrency contract
//
// Training parallelizes behind an explicit jobs argument (SelectAndTrain)
// and fields (RandomForest.Jobs, GradientBoosting.Jobs), with results
// bit-for-bit identical to serial at any worker count: every unit of work
// (candidate, tree, boosting output) that draws randomness derives its RNG
// from the seed and its own index — never from execution order — writes
// only unit-private state, and reduces in deterministic unit order. The
// gradient-boosted trees and the lone regression tree scan every feature at
// every node and draw no randomness at all. Jobs <= 0 selects
// runtime.GOMAXPROCS(0); 1 is the serial path.
//
// Fit never mutates the caller's X/Y matrices (scalers, column copies and
// presorts allocate), so concurrent candidates may share one Dataset.
// Fitted models are safe for concurrent Predict; Fit itself is not
// reentrant per model.
//
// # The tree kernel
//
// Every tree — the regression tree, each forest tree, each boosting stage —
// grows through one CART builder from presorted rows: each feature's
// sample is sorted once, and a split stable-partitions every feature's
// order, so no node sorts. Within a node, rows that tie on a feature's
// value are scanned in their order in the tree's sample (the identity for
// the regression tree and GBM, the bootstrap draw for a forest tree); the
// split scan's prefix sums, and so the chosen splits, follow that order. A
// builder's buffers (sample, per-feature orders, partition and sum
// scratch) are private to the tree it grows — GBM reuses one per output
// across rounds, copying in the one presort its Fit made — and a fitted
// model keeps none of them.
package ml
