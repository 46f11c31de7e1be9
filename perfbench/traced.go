package main

import (
	"fmt"
	"runtime"
	"time"

	"rmmap/internal/simtime"
)

// layerBudget bounds the host time the layer probes spend replaying
// captured states.
const layerBudget = 3 * time.Second

// tracedRun runs one untraced and one traced pass, checks that tracing
// moved no virtual result, then replays the captured states through the
// layer probes. Host layer metrics come from benchmark-owned spans and
// probes; count metrics come from the traced pass's public results.
func tracedRun(w runner, c *capturer, spansPath string) (*report, error) {
	runtime.GC()
	plain, err := w.pass(nil)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	tr := newTracer()
	traced, err := w.pass(tr)
	if err != nil {
		return nil, err
	}
	rep := &report{correct: true}
	rep.tally(plain)
	rep.tally(traced)
	// The digest covers every request's virtual latency, meters, shed
	// reason and output and every layer count, so equal digests mean equal
	// virtual metrics.
	dp, dt := digest(plain), digest(traced)
	if dp != dt {
		rep.correct = false
		rep.notes = append(rep.notes, fmt.Sprintf("traced virtual digest %s differs from untraced %s", dt, dp))
	}
	rep.correct = rep.correct && rep.failed == 0
	rep.notes = append(rep.notes, "virtual digest "+dt)

	runtime.GC()
	probes, err := measureLayers(c.states, layerBudget)
	if err != nil {
		return nil, err
	}
	if err := tr.write(spansPath); err != nil {
		return nil, err
	}
	rep.notes = append(rep.notes, fmt.Sprintf("%d spans written to %s; %d captured states, %d probe rounds",
		len(tr.spans), spansPath, len(c.states), probes.rounds))
	rep.metrics = layerMetrics(traced, tr.summarize(), probes, c.states)
	rep.metrics = append(rep.metrics,
		metric{"trace_overhead_ratio", traced.host.Seconds() / plain.host.Seconds(), "ratio", "host"})
	m := traced.counts.meter
	total := float64(m.Total())
	if total > 0 {
		rep.notes = append(rep.notes, fmt.Sprintf("serialize+deserialize share of virtual work %.4f%%",
			100*float64(m.Get(simtime.CatSerialize)+m.Get(simtime.CatDeserialize))/total))
	}
	return rep, nil
}

// simCategories are the meter categories reported as simtime.<name>_ms.
var simCategories = []simtime.Category{
	simtime.CatCompute, simtime.CatSerialize, simtime.CatDeserialize, simtime.CatNetwork,
	simtime.CatStorage, simtime.CatRegister, simtime.CatMap, simtime.CatFault, simtime.CatPlatform,
}

func layerMetrics(pr passResult, spans map[string]layerTime, p *layerProbes, states []state) []metric {
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	rounds := float64(p.rounds)
	c := pr.counts
	pickled := 0.0
	for _, st := range states {
		pickled += float64(len(st.data) * st.instances)
	}
	out := []metric{
		{"platform.new_engine_ms", ms(spans["platform.NewEngine"].total), "ms", "host"},
		{"platform.run_ms", ms(spans["platform.Run"].total), "ms", "host"},
		{"platform.framework_ms", ms(spans["platform.Run"].self), "ms", "host"},
		{"platform.cold_starts", float64(c.coldStarts), "count", "count"},
		{"platform.useful_ratio", ratio(float64(c.completed), float64(c.admitted)), "ratio", "count"},
		{"workloads.handler_ms", ms(spans["workloads.handler"].total), "ms", "host"},
		{"workloads.handler_calls", float64(spans["workloads.handler"].count), "count", "count"},
		{"objrt.pickle_ns_per_kb", p.pickle.nsPerUnit(), "ns/KB", "host"},
		{"objrt.unpickle_ns_per_kb", p.unpickle.nsPerUnit(), "ns/KB", "host"},
		{"objrt.pickle_allocs_per_op", p.pickle.allocsPerOp(), "count", "host"},
		{"objrt.unpickle_allocs_per_op", p.unpickle.allocsPerOp(), "count", "host"},
		{"objrt.gc_ms", ms(p.gc.elapsed) / rounds, "ms", "host"},
		{"objrt.pickled_mb", pickled / (1 << 20), "MB", "count"},
		{"objrt.walk_ns_per_obj", p.walk.nsPerUnit(), "ns", "host"},
		{"transport.encode_ns_per_kb", p.encode.nsPerUnit(), "ns/KB", "host"},
		{"transport.decode_ns_per_kb", p.decode.nsPerUnit(), "ns/KB", "host"},
		{"transport.decode_allocs_per_op", p.decode.allocsPerOp(), "count", "host"},
		{"memsim.read_ns_per_kb", p.read.nsPerUnit(), "ns/KB", "host"},
		{"memsim.markcow_ns_per_page", p.markCoW.nsPerUnit(), "ns", "host"},
		{"kernel.fault_ns_per_page", p.fault.nsPerUnit(), "ns", "host"},
		{"kernel.prefetch_ns_per_page", p.prefetch.nsPerUnit(), "ns", "host"},
		{"kernel.rmap_us", p.rmap.nsPerUnit() / 1e3, "us", "host"},
		{"kernel.fault_allocs_per_op", ratio(float64(p.fault.allocs), p.fault.units), "count", "host"},
		{"kernel.register_ns_per_page", p.register.nsPerUnit(), "ns", "host"},
		{"kernel.deregister_ns_per_page", p.deregister.nsPerUnit(), "ns", "host"},
		{"kernel.cache_hit_ratio", ratio(float64(c.cache.Hits), float64(c.cache.Hits+c.cache.Misses)), "ratio", "count"},
		{"kernel.readahead_pages", float64(c.cache.ReadaheadPages), "count", "count"},
		{"rdma.read_pages_ns_per_page", p.readPages.nsPerUnit(), "ns", "host"},
		{"rdma.reads", float64(c.reads), "count", "count"},
		{"rdma.batches", float64(c.batches), "count", "count"},
		{"rdma.pages_per_batch", ratio(float64(c.batchPages), float64(c.batches)), "count", "count"},
		{"rdma.mb_read", float64(c.bytesRead) / (1 << 20), "MB", "count"},
		{"ctrl.register_ns_op", p.ctrlRegister.nsPerUnit(), "ns", "host"},
		{"ctrl.release_ns_op", p.ctrlRelease.nsPerUnit(), "ns", "host"},
		{"ctrl.journal_appends", float64(c.journalAppends), "count", "count"},
		{"ctrl.journal_kb", float64(c.journalBytes) / 1024, "KB", "count"},
		{"ctrl.snapshots", float64(c.snapshots), "count", "count"},
		{"admit.submit_ns_op", p.submit.nsPerUnit(), "ns", "host"},
		{"admit.shed_deadline", float64(c.admission.ShedDeadline), "count", "count"},
		{"admit.shed_queue_full", float64(c.admission.ShedQueueFull), "count", "count"},
		{"admit.breaker_trips", float64(c.admission.BreakerTrips), "count", "count"},
	}
	for _, cat := range simCategories {
		out = append(out, metric{"simtime." + cat.String() + "_ms",
			float64(c.meter.Get(cat)) / float64(simtime.Millisecond), "ms", "virtual"})
	}
	return out
}
