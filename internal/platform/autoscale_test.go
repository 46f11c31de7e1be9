package platform

import (
	"testing"

	"rmmap/internal/simtime"
)

func TestAutoscalerReleasesIdlePods(t *testing.T) {
	e, err := NewEngine(pipelineWorkflow(1000), ModeMessaging,
		Options{AutoscaleIdle: 50 * simtime.Millisecond}, smallCluster())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Run() drains the simulator, which includes the autoscaler ticking
	// until every pod went cold.
	if e.ScaleDowns() == 0 {
		t.Error("no pods scaled down after idling")
	}
	for _, p := range e.pods {
		if len(p.cache) != 0 {
			t.Errorf("pod %v still holds %d warm containers", p, len(p.cache))
		}
	}
	// The containers' heap memory was released with them; only the
	// shared text frames (the page cache's copy of the libraries) stay.
	if live, text := e.Cluster.LiveBytes(), e.SharedTextBytes(); live != text {
		t.Errorf("live bytes after full scale-down = %d, want %d (shared text only)", live, text)
	}
}

func TestAutoscalerKeepsWarmUnderLoad(t *testing.T) {
	e, err := NewEngine(pipelineWorkflow(500), ModeMessaging,
		Options{AutoscaleIdle: 10 * simtime.Second}, smallCluster())
	if err != nil {
		t.Fatal(err)
	}
	// Back-to-back requests well inside the idle window: no scale-down
	// while the window has not passed (checked mid-run; the drain at the
	// very end legitimately reclaims the then-idle pods).
	for i := 0; i < 3; i++ {
		e.SubmitTenant(SubmitInfo{}, nil)
	}
	e.Cluster.Sim.At(simtime.Time(5*simtime.Second), func() {
		if e.ScaleDowns() != 0 {
			t.Errorf("scaled down %d pods inside the idle window", e.ScaleDowns())
		}
	})
	e.Cluster.Sim.Run()
	if e.ScaleDowns() == 0 {
		t.Error("drain never reclaimed the idle pods")
	}
}

func TestAutoscalerColdReuseStillCorrect(t *testing.T) {
	// A request after full scale-down must recreate containers and still
	// compute the right answer.
	e, err := NewEngine(pipelineWorkflow(800), ModeRMMAPPrefetch,
		Options{AutoscaleIdle: 20 * simtime.Millisecond}, smallCluster())
	if err != nil {
		t.Fatal(err)
	}
	var outputs []any
	e.SubmitTenant(SubmitInfo{}, func(r RunResult) {
		if r.Err != nil {
			t.Errorf("first request: %v", r.Err)
		}
		outputs = append(outputs, r.Output)
	})
	e.Cluster.Sim.Run() // drains: request done, pods scaled down
	if e.ScaleDowns() == 0 {
		t.Fatal("precondition: no scale-down happened")
	}
	e.SubmitTenant(SubmitInfo{}, func(r RunResult) {
		if r.Err != nil {
			t.Errorf("post-scale-down request: %v", r.Err)
		}
		outputs = append(outputs, r.Output)
	})
	e.Cluster.Sim.Run()
	if len(outputs) != 2 || outputs[0] != outputs[1] {
		t.Errorf("outputs = %v", outputs)
	}
}
