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
// (candidate, tree, boosting output) derives its RNG from the seed and its
// own index — never from execution order — writes only unit-private state,
// and reduces in deterministic unit order. Jobs <= 0 selects
// runtime.GOMAXPROCS(0); 1 is the serial path.
//
// Fit never mutates the caller's X/Y matrices (scalers allocate), so
// concurrent candidates may share one Dataset. Fitted models are safe for
// concurrent Predict; Fit itself is not reentrant per model.
package ml
