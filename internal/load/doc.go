// Package load owns every multi-request driver of the platform engine:
// the workload side of Fig 12 and of the overload experiments
// (DESIGN.md §11, EXPERIMENTS.md scale soak). The engine itself only
// runs one request synchronously (Engine.Run) or submits one
// asynchronously (Engine.SubmitTenant); anything that schedules many
// submissions on the simulator is here.
//
// Two drivers share one tally and return one Result. Replay is the open
// loop: arrival schedules are materialized up front as []Event
// (virtual-time instants with tenant IDs and relative deadlines) —
// synthesized by the deterministic Uniform/Poisson/Bursty generators or
// read from a replayable JSONL trace — and every event is scheduled on
// the simulator clock and submitted through SubmitTenant, never waiting
// for completions. Closed is the closed loop: a fixed number of clients,
// each submitting its next request when the previous one completes,
// until a virtual horizon. Both sample Engine.BusyPods every 100 ms and
// bucket completions per second, so the same event list or client count
// produces byte-identical results at any Options.Workers.
//
// The generators use their own splitmix64 stream (not math/rand), so a
// (spec, seed) pair pins the exact arrival schedule across Go versions.
package load
