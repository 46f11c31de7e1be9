package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"time"

	"rmmap/internal/admit"
	"rmmap/internal/bench"
	"rmmap/internal/kernel"
	"rmmap/internal/load"
	"rmmap/internal/objrt"
	"rmmap/internal/platform"
	"rmmap/internal/simtime"
	"rmmap/internal/workloads"
)

// Workload shapes. The scales keep one pass of a workload to a few seconds
// of host time on a 2-core host, so a run takes several passes and reports
// their median.
const (
	// serdeScale sizes fig14-serde: the baselines' (de)serialization
	// dominates host time, so a small payload already gives a long pass.
	serdeScale = 0.04
	// rmmapScale sizes fig14-rmmap: rmmap skips the codecs, so a larger
	// payload is needed for faults and prefetch to carry weight.
	rmmapScale = 0.15

	soakMachines = 4
	soakPods     = 16
	// 64 tenants keep any one tenant's run of deadline misses short, so
	// per-tenant breakers stay closed and shedding is set by the bursts.
	soakTenants  = 64
	soakDeadline = 10 * simtime.Millisecond
	// The steady rate is below the 4-machine cluster's capacity for small
	// WordCount and the bursts are far above it, so every burst sheds some
	// requests on their deadline. Many short bursts per pass make the shed
	// fraction an average over ~30 windows rather than a handful.
	soakBaseRate  = 500
	soakBurstRate = 3000
	soakHorizon   = 1500 * simtime.Millisecond
	soakEvery     = 50 * simtime.Millisecond
	soakBurstLen  = 15 * simtime.Millisecond

	// workers is the engine worker pool: 1, the sequential reference. On
	// a 2-core host a second worker competes with the garbage collector
	// for the other core, which makes host time less steady.
	workers = 1
)

var (
	serdeModes = []platform.Mode{platform.ModeMessaging, platform.ModeStoragePocket, platform.ModeStorageDrTM}
	rmmapModes = []platform.Mode{platform.ModeRMMAP, platform.ModeRMMAPPrefetch}
)

// seededWorkflows mirrors bench.Workflows(scale) with seed threaded into
// every workloads.*Config. Each config's seed is its default plus seed-1,
// and the payload scale grows by (seed-1) mod 8 quarter-percents, so seeds
// vary input size as well as content (the cost model charges by size, so
// content alone barely moves virtual time). Seed 1 is exactly the
// bench.Workflows grid (TestSeededWorkflowsMatchBench pins the mirror).
func seededWorkflows(scale float64, seed uint64) []bench.WorkflowBuilder {
	off := int64(seed) - 1
	payload := scale * (1 + float64((seed+7)%8)/400)
	finra := workloads.DefaultFINRA()
	finra.Rows = scaleInt(finra.Rows, payload)
	finra.Rules = scaleInt(finra.Rules, scale*0.25+0.75)
	if finra.Rules < 8 {
		finra.Rules = 8
	}
	finra.Seed += off
	mlt := workloads.DefaultMLTrain()
	mlt.Images = scaleInt(mlt.Images, payload)
	mlt.Seed += off
	mlp := workloads.DefaultMLPredict()
	mlp.Images = scaleInt(mlp.Images, payload)
	mlp.Seed += off
	wc := workloads.DefaultWordCount()
	wc.BookBytes = scaleInt(wc.BookBytes, payload)
	wc.Seed += off
	return []bench.WorkflowBuilder{
		{Name: "FINRA", Build: func() *platform.Workflow { return workloads.FINRA(finra) }},
		{Name: "ML-training", Build: func() *platform.Workflow { return workloads.MLTrain(mlt) }},
		{Name: "ML-prediction", Build: func() *platform.Workflow { return workloads.MLPredict(mlp) }},
		{Name: "WordCount", Build: func() *platform.Workflow { return workloads.WordCount(wc) }},
	}
}

// scaleInt is bench's payload scaling rule.
func scaleInt(n int, scale float64) int {
	if scale <= 0 || scale >= 1 {
		return n
	}
	return max(int(float64(n)*scale), 1)
}

// wrapFunc rewrites one handler; it receives the workflow and function name.
type wrapFunc func(wf, fn string, h platform.Handler) platform.Handler

// build makes a fresh workflow with every handler passed through wrap.
func build(b bench.WorkflowBuilder, wrap wrapFunc) *platform.Workflow {
	wf := b.Build()
	if wrap != nil {
		for _, f := range wf.Functions {
			f.Handler = wrap(b.Name, f.Name, f.Handler)
		}
	}
	return wf
}

// request is one request's outcome as the benchmark sees it.
type request struct {
	label     string           // workflow/mode (fig14) or tenant (soak)
	latency   simtime.Duration // virtual, from the scheduled arrival
	inTime    bool             // completed within its deadline
	shed      string           // shed reason, "" if not shed
	wrong     bool             // errored, or output differs from the oracle
	meter     *simtime.Meter
	output    any
	errString string
}

// counts are the public per-layer counters a pass reads off results,
// engines and fabrics.
type counts struct {
	coldStarts                 int
	admitted, completed        int
	cache                      kernel.CacheStats
	reads, batches, batchPages int
	bytesRead                  int64
	journalAppends, snapshots  int
	journalBytes               int64
	admission                  admit.Stats
	meter                      *simtime.Meter
}

// passResult is everything one pass produced.
type passResult struct {
	host       time.Duration
	allocBytes uint64
	reqs       []request
	counts     counts
	horizon    simtime.Duration // soak: the offered window
	// lateness is the soak's largest gap between an arrival's scheduled
	// time and the simulator clock when it was submitted.
	lateness simtime.Duration
}

// runner is one workload. setOracle must run first; setup performs one
// complete set-up and discards it; pass sets up and runs the workload once,
// recording spans on tr (nil on timed passes).
type runner interface {
	setOracle(wrap wrapFunc) error
	setup() (time.Duration, error)
	pass(tr *tracer) (passResult, error)
}

// oracle maps a workflow name to its messaging-mode output.
type oracle map[string]any

// computeOracle runs each workflow once in messaging mode. The outputs are
// the reference every request is checked against: mode equivalence means
// every transfer mode must report exactly what messaging reports.
func computeOracle(wfs []bench.WorkflowBuilder, wrap wrapFunc) (oracle, error) {
	o := oracle{}
	for _, b := range wfs {
		e, err := platform.NewEngine(build(b, wrap), platform.ModeMessaging,
			platform.Options{Workers: workers}, platform.DefaultClusterConfig())
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", b.Name, err)
		}
		res, err := e.Run()
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", b.Name, err)
		}
		if res.Output == nil {
			return nil, fmt.Errorf("oracle %s: no output", b.Name)
		}
		o[b.Name] = res.Output
	}
	return o, nil
}

// fig14 is a grid of (workflow, mode) cells, each one request on a fresh
// 10-machine/80-pod engine, run one after another: a closed loop of one.
type fig14 struct {
	wfs    []bench.WorkflowBuilder
	modes  []platform.Mode
	oracle oracle
	// wrap, when set, rewrites every handler of a pass (tests use it to
	// corrupt an output).
	wrap wrapFunc
}

func (g *fig14) setOracle(wrap wrapFunc) (err error) {
	g.oracle, err = computeOracle(g.wfs, wrap)
	return err
}

// engine builds one cell's engine.
func (g *fig14) engine(b bench.WorkflowBuilder, mode platform.Mode, wrap wrapFunc) (*platform.Engine, error) {
	e, err := platform.NewEngine(build(b, wrap), mode, platform.Options{Workers: workers},
		platform.DefaultClusterConfig())
	if err != nil {
		return nil, fmt.Errorf("%s/%v: %w", b.Name, mode, err)
	}
	return e, nil
}

func (g *fig14) setup() (time.Duration, error) {
	t0 := time.Now()
	for _, b := range g.wfs {
		for _, mode := range g.modes {
			if _, err := g.engine(b, mode, g.wrap); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(t0), nil
}

func (g *fig14) pass(tr *tracer) (passResult, error) {
	var pr passResult
	pr.counts.meter = simtime.NewMeter()
	cell := 0
	for _, b := range g.wfs {
		for _, mode := range g.modes {
			cell++
			runSpan := -1
			w := g.wrap
			if tr != nil {
				req := cell
				w = timeHandlers(tr, &runSpan, func(*platform.Ctx) int { return req }, g.wrap)
			}
			sp := tr.begin("platform.NewEngine", -1, cell)
			e, err := g.engine(b, mode, w)
			tr.end(sp)
			if err != nil {
				return pr, err
			}
			// Each cell starts on a collected heap, so no cell pays for
			// collecting an earlier cell's garbage.
			runtime.GC()
			a0, t0 := heapAllocBytes(), time.Now()
			runSpan = tr.begin("platform.Run", -1, cell)
			res, err := e.Run()
			tr.end(runSpan)
			pr.host += time.Since(t0)
			pr.allocBytes += heapAllocBytes() - a0

			r := request{label: b.Name + "/" + mode.String(), latency: res.Latency, inTime: err == nil,
				meter: res.Meter, output: res.Output}
			if err != nil {
				r.wrong, r.errString = true, err.Error()
			} else if !reflect.DeepEqual(res.Output, g.oracle[b.Name]) {
				r.wrong, r.errString = true, "output differs from the messaging oracle"
			}
			pr.reqs = append(pr.reqs, r)
			c := &pr.counts
			c.admitted++
			if err == nil {
				c.completed++
			}
			c.addEngine(e)
			if res.Meter != nil {
				c.meter.AddAll(res.Meter)
			}
		}
	}
	return pr, nil
}

// addEngine adds a drained engine's cumulative counters: cold starts, the
// cluster's page-cache and fabric counters, and the control plane's.
func (c *counts) addEngine(e *platform.Engine) {
	c.coldStarts += e.ColdStarts()
	c.cache = c.cache.Add(e.Cluster.CacheStats())
	ctl := e.ControlPlane().Stats()
	c.journalAppends += ctl.Appends
	c.journalBytes += ctl.JournalBytes
	c.snapshots += ctl.Snapshots
	reads, batches, _, bytes := e.Cluster.Fabric.Stats()
	c.reads += reads
	c.batches += batches
	c.batchPages += e.Cluster.Fabric.BatchPages()
	c.bytesRead += bytes
}

// soak replays a bursty multi-tenant schedule of small WordCount requests
// in rmmap mode against a 4-machine/16-pod cluster with admission on.
type soak struct {
	spec   load.BurstSpec
	wf     bench.WorkflowBuilder
	oracle oracle
}

func (s *soak) setOracle(wrap wrapFunc) (err error) {
	s.oracle, err = computeOracle([]bench.WorkflowBuilder{s.wf}, wrap)
	return err
}

// engine generates the arrival schedule and builds the soak's engine.
func (s *soak) engine(wrap wrapFunc) ([]load.Event, *platform.Engine, error) {
	events := load.Bursty(s.spec)
	e, err := platform.NewEngine(build(s.wf, wrap), platform.ModeRMMAP, platform.Options{
		Workers:   workers,
		Admission: &admit.Config{DefaultDeadline: soakDeadline},
	}, platform.ClusterConfig{Machines: soakMachines, Pods: soakPods})
	return events, e, err
}

func (s *soak) setup() (time.Duration, error) {
	t0 := time.Now()
	_, _, err := s.engine(nil)
	return time.Since(t0), err
}

func newSoak(seed uint64) *soak {
	wc := workloads.SmallWordCount()
	wc.Seed += int64(seed) - 1
	return &soak{
		spec: load.BurstSpec{BaseRate: soakBaseRate, BurstRate: soakBurstRate, BurstEvery: soakEvery,
			BurstLen: soakBurstLen, Horizon: soakHorizon, Tenants: soakTenants, Deadline: soakDeadline,
			Seed: seed},
		wf: bench.WorkflowBuilder{Name: "WordCount",
			Build: func() *platform.Workflow { return workloads.WordCount(wc) }},
	}
}

func (s *soak) pass(tr *tracer) (passResult, error) {
	pr := passResult{horizon: s.spec.Horizon}
	pr.counts.meter = simtime.NewMeter()
	runSpan := -1
	var w wrapFunc
	if tr != nil {
		w = timeHandlers(tr, &runSpan, func(ctx *platform.Ctx) int { return ctx.RequestID }, nil)
	}
	sp := tr.begin("platform.NewEngine", -1, 0)
	events, e, err := s.engine(w)
	tr.end(sp)
	if err != nil {
		return pr, err
	}
	sim := e.Cluster.Sim
	pr.reqs = make([]request, len(events))
	for i, ev := range events {
		i, ev := i, ev
		pr.reqs[i] = request{label: ev.Tenant, wrong: true, errString: "did not complete"}
		sim.At(ev.At, func() {
			pr.lateness = max(pr.lateness, sim.Now().Sub(ev.At))
			e.SubmitTenant(platform.SubmitInfo{Tenant: ev.Tenant, Deadline: ev.Deadline}, func(res platform.RunResult) {
				// Latency runs from the scheduled arrival, so queue wait
				// counts; RunResult.Latency would start at dequeue.
				lat := sim.Now().Sub(ev.At)
				r := request{label: ev.Tenant, latency: lat, meter: res.Meter, output: res.Output}
				switch {
				case res.Shed:
					r.shed = res.ShedReason
				case res.Err != nil:
					r.wrong, r.errString = true, res.Err.Error()
				default:
					if !reflect.DeepEqual(res.Output, s.oracle[s.wf.Name]) {
						r.wrong, r.errString = true, "output differs from the messaging oracle"
					}
					r.inTime = lat <= ev.Deadline
				}
				pr.reqs[i] = r
			})
		})
	}
	a0, t0 := heapAllocBytes(), time.Now()
	runSpan = tr.begin("platform.Run", -1, 0)
	sim.Run()
	tr.end(runSpan)
	pr.host = time.Since(t0)
	pr.allocBytes = heapAllocBytes() - a0

	c := &pr.counts
	c.admission = e.AdmissionStats()
	c.admitted = c.admission.Admitted
	for _, r := range pr.reqs {
		if r.shed == "" && !r.wrong {
			c.completed++
		}
		if r.meter != nil {
			c.meter.AddAll(r.meter)
		}
	}
	c.addEngine(e)
	return pr, nil
}

// timeHandlers wraps every handler in a workloads.handler span whose
// parent is the platform.Run span open at the time of the call.
func timeHandlers(tr *tracer, parent *int, req func(*platform.Ctx) int, inner wrapFunc) wrapFunc {
	return func(wf, fn string, h platform.Handler) platform.Handler {
		if inner != nil {
			h = inner(wf, fn, h)
		}
		return func(ctx *platform.Ctx) (objrt.Obj, error) {
			sp := tr.begin("workloads.handler", *parent, req(ctx))
			defer tr.end(sp)
			return h(ctx)
		}
	}
}

// digest hashes every virtual output of a pass: per-request latency, meter
// breakdown, shed reason and reported output. Two runs of the same code and
// seed must agree on it; a host-only change must leave it unchanged.
func digest(pr passResult) string {
	h := sha256.New()
	for _, r := range pr.reqs {
		fmt.Fprintf(h, "%s|%d|%t|%s|%t|%#v|", r.label, r.latency, r.inTime, r.shed, r.wrong, r.output)
		if r.meter != nil {
			snap := r.meter.Snapshot()
			keys := make([]string, 0, len(snap))
			for k := range snap {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(h, "%s=%d,", k, snap[k])
			}
		}
		fmt.Fprintln(h)
	}
	c := pr.counts
	fmt.Fprintf(h, "%d %d %d %+v %d %d %d %d %d %d %d %+v %d\n", c.coldStarts, c.admitted, c.completed, c.cache,
		c.reads, c.batches, c.batchPages, c.bytesRead, c.journalAppends, c.snapshots, c.journalBytes, c.admission,
		pr.lateness)
	return hex.EncodeToString(h.Sum(nil))
}
