package bench

import (
	"io"

	"rmmap/internal/platform"
	"rmmap/internal/simtime"
	"rmmap/internal/workloads"
)

func init() {
	register(Experiment{
		ID:    "abl-compress",
		Title: "Ablation: DEFLATE on the messaging critical path (§6)",
		Expect: "compression shrinks wire bytes but its compute sits on the " +
			"critical path — E2E gets worse, matching the paper's decision " +
			"to leave compression out",
		Run: runAblCompress,
	})
}

func runAblCompress(w io.Writer, rc RunConfig) error {
	cfg := workloads.DefaultWordCount()
	cfg.BookBytes = scaleInt(cfg.BookBytes, rc.Scale)
	t := newTable(w, "variant", "latency", "ser+des (incl. codec)", "network")
	opts := rc.Options()
	for _, compress := range []bool{false, true} {
		opts.Compress = compress
		e, err := platform.NewEngine(workloads.WordCount(cfg), platform.ModeMessaging, opts, platform.DefaultClusterConfig())
		if err != nil {
			return err
		}
		res, err := e.Run()
		if err != nil {
			return err
		}
		name := "plain cloudevents"
		if compress {
			name = "deflate + cloudevents"
		}
		t.row(name, res.Latency, res.Meter.SerTotal(), res.Meter.Get(simtime.CatNetwork))
	}
	t.flush()
	return nil
}
