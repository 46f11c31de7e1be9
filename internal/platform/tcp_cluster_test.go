package platform

import "testing"

// TestWorkflowOverRealSockets runs a complete rmap workflow on a cluster
// whose machines are connected by actual TCP sockets: every page-table
// fetch and remote page read crosses a real network boundary, and the
// result must match the in-process fabric bit for bit.
func TestWorkflowOverRealSockets(t *testing.T) {
	e, err := NewEngine(pipelineWorkflow(2000), ModeRMMAPPrefetch, Options{},
		ClusterConfig{Machines: 3, Pods: 6, AllTCP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Cluster.Close()
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := int64(2000 * 2001 / 2)
	if res.Output.(int64) != want {
		t.Errorf("output over TCP = %v, want %d", res.Output, want)
	}

	// Same workflow on the simulated fabric: identical result AND
	// identical virtual-time latency (the transport is real, the cost
	// model is the same).
	e2, err := NewEngine(pipelineWorkflow(2000), ModeRMMAPPrefetch, Options{},
		ClusterConfig{Machines: 3, Pods: 6})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := e2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != res2.Output {
		t.Errorf("TCP (%v) and sim (%v) outputs differ", res.Output, res2.Output)
	}
	if res.Latency != res2.Latency {
		t.Errorf("virtual latency differs: TCP %v vs sim %v", res.Latency, res2.Latency)
	}
}

func TestTCPClusterFanOut(t *testing.T) {
	e, err := NewEngine(fanWorkflow(8), ModeRMMAP, Options{},
		ClusterConfig{Machines: 4, Pods: 12, AllTCP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Cluster.Close()
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.(int) != 8 {
		t.Errorf("sink saw %v inputs", res.Output)
	}
}
