package load

import (
	"sort"

	"rmmap/internal/admit"
	"rmmap/internal/obs"
	"rmmap/internal/platform"
	"rmmap/internal/simtime"
)

// sampleEvery is the BusyPods sampling period of every load run.
const sampleEvery = 100 * simtime.Millisecond

// TenantStats is one tenant's slice of a load run.
type TenantStats struct {
	Offered   int
	Completed int
	Failed    int
	Shed      int
	// Latencies holds the tenant's completed-request latencies in
	// completion order (not sorted — isolation tests byte-compare them).
	Latencies []simtime.Duration
}

// Result summarises one load run, open-loop (Replay) or closed-loop
// (Closed).
type Result struct {
	Offered   int // submitted through SubmitTenant
	Completed int // finished successfully
	Failed    int // finished with a non-shed error
	Shed      int // rejected or abandoned by the overload layer
	// DeadlineSheds counts the sheds that were deadline expiries
	// (queue-side or mid-run).
	DeadlineSheds int
	// Horizon is the offered window: the open loop's arrival bound or the
	// closed loop's stop instant. Drained is the virtual instant the run
	// ended (a closed loop stops at Horizon with requests in flight).
	Horizon simtime.Duration
	Drained simtime.Duration
	// Latencies are completed-request latencies, sorted ascending.
	Latencies []simtime.Duration
	// BusyPods samples Engine.BusyPods every 100 ms from 0 through Horizon.
	BusyPods []int
	// ThroughputTimeline counts completions per one-second bucket, through
	// the second that contains Horizon; later completions are not bucketed.
	ThroughputTimeline []int
	// ByTenant splits the counters per tenant (a closed loop submits as
	// the anonymous tenant "").
	ByTenant map[string]*TenantStats
	// Admission snapshots the engine's admission counters at drain time.
	Admission admit.Stats
	// ColdStarts snapshots the engine's pod cold starts at drain time.
	ColdStarts int
	// ActivatedPods snapshots the high-water mark of pods ever used.
	ActivatedPods int
}

// OfferedRPS is the offered arrival rate over the horizon.
func (r Result) OfferedRPS() float64 {
	if r.Horizon <= 0 {
		return 0
	}
	return float64(r.Offered) / r.Horizon.Seconds()
}

// GoodputRPS is successful completions per second of offered window.
func (r Result) GoodputRPS() float64 {
	if r.Horizon <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Horizon.Seconds()
}

// Throughput is successful completions per second of the whole run: the
// offered window, or up to the drain when the run outlasted it.
func (r Result) Throughput() float64 {
	d := max(r.Drained, r.Horizon)
	if d <= 0 {
		return 0
	}
	return float64(r.Completed) / d.Seconds()
}

// ShedRate is the shed fraction of offered load.
func (r Result) ShedRate() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Shed) / float64(r.Offered)
}

// ColdStartRate is cold starts per offered request.
func (r Result) ColdStartRate() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.ColdStarts) / float64(r.Offered)
}

// Percentile returns the p-quantile completed latency (p in [0,1]).
func (r Result) Percentile(p float64) simtime.Duration {
	if len(r.Latencies) == 0 {
		return 0
	}
	i := int(p * float64(len(r.Latencies)-1))
	return r.Latencies[i]
}

// AvgBusyPods averages the BusyPods samples.
func (r Result) AvgBusyPods() float64 {
	if len(r.BusyPods) == 0 {
		return 0
	}
	sum := 0
	for _, b := range r.BusyPods {
		sum += b
	}
	return float64(sum) / float64(len(r.BusyPods))
}

// LatencyHistogram folds the completed latencies into the standard
// exponential buckets — the percentile view of rmmap-trace -openloop.
func (r Result) LatencyHistogram() *obs.Histogram {
	h := obs.NewHistogram(obs.LatencyBucketsNs())
	for _, l := range r.Latencies {
		h.Observe(float64(l))
	}
	return h
}

// Replay is the open-loop driver: it schedules every event on the
// engine's simulator clock, submits through SubmitTenant, runs the
// simulation to drain, and tallies the outcomes. The schedule never waits
// for completions. horizon is the offered window the rates are computed
// over (pass the generator's Horizon; 0 uses the last arrival instant + 1).
// The engine must be fresh: events are absolute virtual instants.
func Replay(e *platform.Engine, events []Event, horizon simtime.Duration) Result {
	if horizon <= 0 && len(events) > 0 {
		horizon = simtime.Duration(events[len(events)-1].At) + 1
	}
	return tally(e, horizon, func(submit func(Event, func())) {
		for _, ev := range events {
			e.Cluster.Sim.At(ev.At, func() { submit(ev, nil) })
		}
	})
}

// Closed is the closed-loop driver: clients requests from the anonymous
// tenant stay in flight, each completion before the horizon submitting the
// next, and the run stops at the horizon (the Fig 12 saturated-throughput
// measurement). A horizon ≤ 0 runs nothing: the loop would never stop.
func Closed(e *platform.Engine, clients int, horizon simtime.Duration) Result {
	if horizon <= 0 {
		return Result{}
	}
	s := e.Cluster.Sim
	s.Horizon = simtime.Time(horizon)
	return tally(e, horizon, func(submit func(Event, func())) {
		var next func()
		next = func() {
			submit(Event{}, func() {
				if simtime.Duration(s.Now()) < horizon {
					next()
				}
			})
		}
		for i := 0; i < clients; i++ {
			s.At(0, next)
		}
	})
}

// tally is the bookkeeping every driver shares. schedule queues the run's
// submissions on the simulator; each goes through submit, which sends the
// event's tenant and deadline to SubmitTenant, folds the outcome into the
// Result, and then calls then (if non-nil). tally then samples BusyPods
// every 100 ms to the horizon, runs the simulation to drain, and snapshots
// the engine's counters.
func tally(e *platform.Engine, horizon simtime.Duration, schedule func(submit func(ev Event, then func()))) Result {
	res := Result{
		Horizon:            horizon,
		ThroughputTimeline: make([]int, int(horizon/simtime.Second)+1),
		ByTenant:           make(map[string]*TenantStats),
	}
	s := e.Cluster.Sim
	schedule(func(ev Event, then func()) {
		ts := res.ByTenant[ev.Tenant]
		if ts == nil {
			ts = &TenantStats{}
			res.ByTenant[ev.Tenant] = ts
		}
		res.Offered++
		ts.Offered++
		e.SubmitTenant(platform.SubmitInfo{Tenant: ev.Tenant, Deadline: ev.Deadline}, func(r platform.RunResult) {
			switch {
			case r.Shed:
				res.Shed++
				ts.Shed++
				if r.DeadlineExceeded {
					res.DeadlineSheds++
				}
			case r.Err != nil:
				res.Failed++
				ts.Failed++
			default:
				res.Completed++
				ts.Completed++
				res.Latencies = append(res.Latencies, r.Latency)
				ts.Latencies = append(ts.Latencies, r.Latency)
				if b := int(s.Now() / simtime.Time(simtime.Second)); b < len(res.ThroughputTimeline) {
					res.ThroughputTimeline[b]++
				}
			}
			if then != nil {
				then()
			}
		})
	})
	// Samples queue behind the submissions, so a sample and an arrival at
	// the same instant see the arrival first.
	for i := 0; i <= int(horizon/sampleEvery); i++ {
		s.At(simtime.Time(simtime.Duration(i)*sampleEvery), func() {
			res.BusyPods = append(res.BusyPods, e.BusyPods())
		})
	}
	res.Drained = simtime.Duration(s.Run())
	sort.Slice(res.Latencies, func(i, j int) bool { return res.Latencies[i] < res.Latencies[j] })
	res.Admission = e.AdmissionStats()
	res.ColdStarts = e.ColdStarts()
	res.ActivatedPods = e.ActivatedPods()
	return res
}
