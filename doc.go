// Package mb2 is a from-scratch Go reproduction of "MB2: Decomposed
// Behavior Modeling for Self-Driving Database Management Systems"
// (SIGMOD 2021): an in-memory MVCC DBMS substrate with a deterministic
// hardware simulator, the MB2 behavior-modeling framework (OU decomposition,
// OU-runners, OU-models, interference model), the QPPNet baseline, the four
// evaluation benchmarks, and a harness that regenerates every table and
// figure of the paper's evaluation.
//
// See README.md for the layout, DESIGN.md for the system inventory and
// substitutions, and EXPERIMENTS.md for paper-vs-measured results.
// cmd/mb2-bench regenerates each experiment:
//
//	go run ./cmd/mb2-bench -exp all
package mb2
