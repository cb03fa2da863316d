// Package selfdrive closes MB2's loop (Sec 8.7): observe → forecast → plan
// → act against a live engine.DB, with one implementation of each stage.
//
//   - scenario (scenario.go) is the workload: a template population (the
//     four TPC-C read templates, optionally exploded into synthetic
//     variants), a load curve, and the one generator that draws every
//     session's seeded query list from them. It also resolves a template
//     name to its canonical representative plan.
//   - volumes (control.go) is the forecast: predictVolumes runs the
//     forecaster over the (optionally clustered) history, volumes.forecast
//     turns the predictions plus a name → representative-plan lookup into
//     the modeling.IntervalForecast inference consumes, and
//     volumes.perTemplate fans them back out for volume-MAPE accounting.
//   - LiveController (control.go) is the control step over a process list,
//     in two halves. ingest drains the session.Registry, extends the
//     history, charges whole-machine contention over the drained
//     per-session load plus an in-flight index build's active threads,
//     advances the build by what contention left it and publishes it once
//     done. plan forecasts the next interval and, on planning steps, ranks
//     candidate actions with planner.PlanActions and applies the first that
//     clears the improvement threshold (passing over index builds while one
//     is in flight), recording one AppliedAction.
//   - digest (digest.go) folds everything observable into the run's
//     fingerprint.
//
// Run is a workload driver over one LiveController: each interval it
// admits its sessions into the controller's registry, executes the
// scenario on them, calls ingest, folds the interval into the digest, then
// calls plan and predicts the next interval's latency (the
// predicted-vs-observed MAPE). Its representative plans come from the
// scenario. LiveController.Tick runs ingest and plan back to back over
// whatever traffic a live registry carries, forecasting over the plans that
// traffic surfaced.
//
// # Determinism
//
// A fixed-seed run is bit-for-bit reproducible at any session-parallelism
// setting. Every session derives its RNG from the run seed and its own
// identity (seed ^ fold("drive/interval-i/session-s")), writes only
// session-private observation buffers, and the loop merges them in session
// index order — so every float reduction happens in a fixed order. Actions
// apply at interval boundaries, on the loop goroutine, never concurrently
// with query execution.
//
// # Prediction caching
//
// All inference — planner evaluations and the loop's own next-interval
// predictions — shares one modeling.PredictionCache keyed by (plan
// fingerprint, execution mode, action signature). The cache syncs against
// the engine's configuration version, so the knob writes and index
// publishes the loop itself performs invalidate stale predictions
// automatically.
package selfdrive
