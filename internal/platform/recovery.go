package platform

import (
	"errors"

	"rmmap/internal/admit"
	"rmmap/internal/faults"
	"rmmap/internal/memsim"
	"rmmap/internal/simtime"
)

// RecoveryPolicy is the platform's failure-handling ladder (§6 fault
// tolerance). With a policy set, transfer failures climb the rungs:
//
//  1. transport retries — transient faults are retried with capped
//     exponential backoff inside the chaos cluster's retry transport,
//     charged to simtime.CatRetry (configured by Retry, applied through
//     ClusterConfig.Chaos);
//  2. partition wait — a transfer that failed because the link is
//     partitioned (faults.ErrPartitioned) parks the whole invocation and
//     retries it after PartitionWait: the state is unreachable, not lost,
//     so neither the payload nor the re-execution budget is spent;
//  3. failover — with replication enabled (Options.Replicas), a consumer
//     whose producer machine crashed re-points its mapping at a backup's
//     replica inside the kernel and continues; it never surfaces here;
//  4. re-execution — a consumer that cannot reach its input state (crash
//     without a complete replica) parks while the coordinator re-runs the
//     producer (the MITOSIS-style re-fork: handlers are deterministic, so
//     the rebuilt state is byte-identical), bounded by MaxReexecutions
//     per request;
//  5. degradation — an edge whose rmap keeps failing for reasons other
//     than a machine crash switches to messaging after DegradeAfter
//     failures, trading zero-copy for liveness.
//
// Options.Recovery == nil disables the ladder entirely (the negative
// control: any transfer failure fails the request).
type RecoveryPolicy struct {
	// Retry is the transport-level retry policy for transient faults.
	Retry faults.RetryPolicy
	// MaxReexecutions caps producer re-executions per request;
	// 0 = DefaultMaxReexecutions.
	MaxReexecutions int
	// DegradeAfter is the number of non-crash transfer failures on one
	// edge before it falls back to messaging; 0 = DefaultDegradeAfter.
	DegradeAfter int
	// PartitionWait is how long an invocation parks before retrying after
	// a partitioned transfer; 0 = DefaultPartitionWait.
	PartitionWait simtime.Duration
	// MaxPartitionWaits caps partition retries per request (a never-lifting
	// partition must not spin forever); 0 = DefaultMaxPartitionWaits.
	MaxPartitionWaits int
}

// Recovery ladder defaults.
const (
	DefaultMaxReexecutions   = 4
	DefaultDegradeAfter      = 2
	DefaultPartitionWait     = 50 * simtime.Microsecond
	DefaultMaxPartitionWaits = 256
)

// DefaultRecoveryPolicy is the policy the chaos experiments run under.
func DefaultRecoveryPolicy() *RecoveryPolicy {
	return &RecoveryPolicy{Retry: faults.DefaultRetryPolicy()}
}

func (p *RecoveryPolicy) maxReexecutions() int {
	if p.MaxReexecutions > 0 {
		return p.MaxReexecutions
	}
	return DefaultMaxReexecutions
}

func (p *RecoveryPolicy) degradeAfter() int {
	if p.DegradeAfter > 0 {
		return p.DegradeAfter
	}
	return DefaultDegradeAfter
}

func (p *RecoveryPolicy) partitionWait() simtime.Duration {
	if p.PartitionWait > 0 {
		return p.PartitionWait
	}
	return DefaultPartitionWait
}

func (p *RecoveryPolicy) maxPartitionWaits() int {
	if p.MaxPartitionWaits > 0 {
		return p.MaxPartitionWaits
	}
	return DefaultMaxPartitionWaits
}

// transferError marks an invocation failure attributable to one input
// payload, carrying the payload so repair can identify the producer to
// re-execute.
type transferError struct {
	payload *statePayload
	err     error
}

func (t *transferError) Error() string { return t.err.Error() }
func (t *transferError) Unwrap() error { return t.err }

// edgeKey identifies one workflow edge by function type, the granularity
// at which degradation applies.
type edgeKey struct {
	from, to string
}

// repair is the coordinator's response to a failed invocation when
// recovery is enabled. If the failure traces to an input payload and the
// re-execution budget allows, it removes the poisoned payload, parks the
// invocation, schedules a redo of the producer, and reports true; the
// parked invocation re-runs once the redo's payload is delivered
// (deliverRedo). It reports false for unrepairable failures.
func (e *Engine) repair(req *request, inv *invocation, err error) bool {
	pol := e.opts.Recovery
	var te *transferError
	if !errors.As(err, &te) {
		return false
	}

	// Partition rung: the input state is unreachable, not lost. Keep the
	// payload (the registration is intact on the other side of the cut),
	// park the invocation, and retry it wholesale once the window has had
	// time to lift. No re-execution budget is consumed. A rung may not
	// retry past the request's deadline: shed instead.
	if errors.Is(err, faults.ErrPartitioned) && req.partitionWaits < pol.maxPartitionWaits() {
		if e.shedOnDeadline(req, pol.partitionWait()) {
			return false
		}
		req.partitionWaits++
		e.parkPartition(req, inv, err)
		return true
	}

	if req.reexecs >= pol.maxReexecutions() {
		return false
	}
	// Re-execution is the most expensive rung; a request past its deadline
	// sheds rather than re-running producers whose output it can no longer
	// use in time.
	if e.shedOnDeadline(req, 0) {
		return false
	}
	p := te.payload
	producer := p.from

	// Drop the poisoned payload from this node's inputs and release its
	// claim so the old registration can be reclaimed; the surviving inputs
	// stay queued for the re-run.
	ins := req.inputs[inv.node]
	for i, q := range ins {
		if q == p {
			req.inputs[inv.node] = append(ins[:i:i], ins[i+1:]...)
			break
		}
	}
	e.releaseConsumer(p)

	// Degradation bookkeeping: crashes always warrant plain re-execution
	// (the state is gone, not the mechanism); anything else that keeps
	// failing on this edge degrades it to messaging.
	if !errors.Is(err, memsim.ErrMachineCrashed) {
		ek := edgeKey{producer.fn, inv.node.fn}
		req.edgeFails[ek]++
		if req.edgeFails[ek] >= pol.degradeAfter() {
			req.degraded[ek] = true
		}
	}
	req.reexecs++

	// Park this invocation until the redo delivers; the first waiter for a
	// producer enqueues the redo itself.
	req.pending[inv.node]++
	waiters := req.redoFor[producer]
	req.redoFor[producer] = append(waiters, inv)
	if len(waiters) == 0 {
		e.queue = append(e.queue, &invocation{req: req, node: producer, redo: true})
	}
	return true
}

// shedOnDeadline sheds req if scheduling another wait-long recovery step
// would overshoot its deadline: the request's error becomes a typed
// deadline ShedError and its remaining invocations drain as no-ops.
// Reports false for requests without a deadline or with time to spare.
func (e *Engine) shedOnDeadline(req *request, wait simtime.Duration) bool {
	if req.deadline == 0 || req.err != nil {
		return false
	}
	if e.Cluster.Sim.Now().Add(wait) <= req.deadline {
		return false
	}
	req.deadlineHit = true
	req.err = &admit.ShedError{Tenant: req.tenant, Reason: admit.ReasonDeadline}
	return true
}

// parkPartition parks inv and arms the partition rung's wait loop. While
// the fault plan says the severed link is still cut, each tick re-parks
// directly — fast-fail, like CrashedNow for crashes: no transport attempt,
// no PRNG draws, no retry backoff — consuming one partitionWait of budget
// per tick. The invocation is re-enqueued once the window lifts, the
// budget runs out, the deadline would be overshot, or the request has
// already failed; it then re-runs (or drains as a no-op) through the
// normal pipeline, so req.remaining is always eventually decremented.
func (e *Engine) parkPartition(req *request, inv *invocation, err error) {
	pol := e.opts.Recovery
	var pe *faults.PartitionError
	known := errors.As(err, &pe) && e.Cluster.Injector != nil
	release := func() {
		e.queue = append(e.queue, inv)
		e.dispatch()
	}
	var tick func()
	tick = func() {
		if req.err == nil && known && e.Cluster.Injector.Partitioned(pe.From, pe.To) &&
			req.partitionWaits < pol.maxPartitionWaits() {
			if e.shedOnDeadline(req, pol.partitionWait()) {
				release()
				return
			}
			req.partitionWaits++
			e.Cluster.Sim.After(pol.partitionWait(), tick)
			return
		}
		release()
	}
	e.Cluster.Sim.After(pol.partitionWait(), tick)
}

// deliverRedo routes a re-executed producer's payload to the invocations
// parked on it and re-enqueues those that are ready. A nil payload (the
// redo itself failed terminally) still unparks the waiters so the request
// drains to its error instead of deadlocking.
func (e *Engine) deliverRedo(req *request, node nodeKey, payload *statePayload) {
	waiters := req.redoFor[node]
	delete(req.redoFor, node)
	if payload != nil {
		payload.consumers = len(waiters)
	}
	for _, w := range waiters {
		if payload != nil {
			req.inputs[w.node] = append(req.inputs[w.node], payload)
		}
		req.pending[w.node]--
		if req.pending[w.node] == 0 {
			e.queue = append(e.queue, w)
		}
	}
}
