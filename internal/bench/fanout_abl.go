package bench

import (
	"fmt"
	"io"

	"rmmap/internal/memsim"
	"rmmap/internal/objrt"
	"rmmap/internal/platform"
	"rmmap/internal/platformbuilder"
)

// topoFanout pins one page-dense producer to machine producer and width
// consumers to machine consumer — the fan-out shape where the
// machine-level remote page cache pays off: without it every co-located
// consumer refetches the producer's whole state over the fabric. With
// consumer < 0 the engine's placement policy places the consumers (the
// abl-topology placement-policy legs).
func topoFanout(producer, consumer, width, elems int) *platform.Workflow {
	var consumerPin *int
	if consumer >= 0 {
		consumerPin = platform.Pin(consumer)
	}
	return &platform.Workflow{
		Name: "fanout",
		Functions: []*platform.FunctionSpec{
			{Name: "produce", Instances: 1, PinMachine: platform.Pin(producer),
				Handler: func(ctx *platform.Ctx) (objrt.Obj, error) {
					vals := make([]int64, elems)
					for i := range vals {
						vals[i] = int64(i + 1)
					}
					return ctx.RT.NewIntList(vals)
				}},
			{Name: "consume", Instances: width, PinMachine: consumerPin,
				Handler: func(ctx *platform.Ctx) (objrt.Obj, error) {
					in := ctx.Inputs[0]
					cnt, err := in.Len()
					if err != nil {
						return objrt.Obj{}, err
					}
					sum := int64(0)
					for i := 0; i < cnt; i++ {
						e, err := in.Index(i)
						if err != nil {
							return objrt.Obj{}, err
						}
						v, err := e.Int()
						if err != nil {
							return objrt.Obj{}, err
						}
						sum += v
					}
					return ctx.RT.NewIntList([]int64{sum})
				}},
			{Name: "sink", Instances: 1,
				Handler: func(ctx *platform.Ctx) (objrt.Obj, error) {
					total := int64(0)
					for _, in := range ctx.Inputs {
						e, err := in.Index(0)
						if err != nil {
							return objrt.Obj{}, err
						}
						v, err := e.Int()
						if err != nil {
							return objrt.Obj{}, err
						}
						total += v
					}
					ctx.Report(total)
					return objrt.Obj{}, nil
				}},
		},
		Edges: []platform.Edge{
			{From: "produce", To: "consume"},
			{From: "consume", To: "sink"},
		},
	}
}

// runAblFanout ablates the remote page cache and the fault-coalescing
// readahead independently on the pinned 1→8 fan-out.
func runAblFanout(w io.Writer, rc RunConfig) error {
	const width = 8
	elems := scaleInt(65536, rc.Scale)
	grid := []struct {
		label          string
		cacheBytes     int64
		readaheadPages int
	}{
		{"on/on", 0, 0},
		{"on/off", 0, -1},
		{"off/on", -1, 0},
		{"off/off", -1, -1},
	}
	t := newTable(w, "cache/readahead", "latency", "fabric-pages", "roundtrips", "hits", "hit-rate", "ra-pages")
	for _, g := range grid {
		cfg, _, err := platformbuilder.Resolve(rc.Topology, 2, 4+2*width)
		if err != nil {
			return err
		}
		cfg.PageCacheBytes, cfg.ReadaheadWindow = g.cacheBytes, g.readaheadPages
		e, err := platform.NewEngine(topoFanout(0, 1, width, elems), platform.ModeRMMAP, rc.Options(), cfg)
		if err != nil {
			return err
		}
		res, err := e.Run()
		if err != nil {
			return fmt.Errorf("abl-fanout %s: %w", g.label, err)
		}
		reads, batches, _, bytesRead := e.Cluster.Fabric.Stats()
		t.row(g.label, res.Latency, bytesRead/memsim.PageSize, reads+batches,
			res.Cache.Hits, pct(res.Cache.HitRate(), 1), res.Cache.ReadaheadPages)
	}
	t.flush()
	return nil
}

func init() {
	register(Experiment{
		ID:    "abl-fanout",
		Title: "Ablation: remote page cache × readahead on a pinned 1→8 fan-out (§4.4)",
		Expect: "cache alone cuts fabric pages ~8x (one fetch per page, CoW installs after); " +
			"readahead alone cuts roundtrips; together both latency and fabric traffic drop",
		Run: runAblFanout,
	})
}
