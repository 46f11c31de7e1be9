// Benchmarks: one testing.B target per paper table/figure plus the four
// ablations, each delegating to the experiment registry in internal/bench.
// Tables are written to io.Discard here; run cmd/rmmap-bench to see them.
//
// Typical usage:
//
//	go test -bench=. -benchmem -benchtime=1x
//
// benchScale keeps the default `go test -bench` wall time reasonable;
// cmd/rmmap-bench runs scale 1.0.
package rmmap_test

import (
	"io"
	"testing"

	"rmmap/internal/bench"
)

const benchScale = 0.1

func runExperiment(b *testing.B, id string) {
	e, ok := bench.Find(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, bench.RunConfig{Scale: benchScale}); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

func BenchmarkFig3StateTransferShare(b *testing.B)    { runExperiment(b, "fig3") }
func BenchmarkFig5DeserShare(b *testing.B)            { runExperiment(b, "fig5") }
func BenchmarkFig11aDataTypes(b *testing.B)           { runExperiment(b, "fig11a") }
func BenchmarkFig11bPayloadSweep(b *testing.B)        { runExperiment(b, "fig11b") }
func BenchmarkFig12Throughput(b *testing.B)           { runExperiment(b, "fig12") }
func BenchmarkFig13aEpochs(b *testing.B)              { runExperiment(b, "fig13a") }
func BenchmarkFig13bTensor(b *testing.B)              { runExperiment(b, "fig13b") }
func BenchmarkFig13cWidth(b *testing.B)               { runExperiment(b, "fig13c") }
func BenchmarkFig13dJava(b *testing.B)                { runExperiment(b, "fig13d") }
func BenchmarkFig14EndToEnd(b *testing.B)             { runExperiment(b, "fig14") }
func BenchmarkFig15Factors(b *testing.B)              { runExperiment(b, "fig15") }
func BenchmarkFig16aMemory(b *testing.B)              { runExperiment(b, "fig16a") }
func BenchmarkFig16bNaos(b *testing.B)                { runExperiment(b, "fig16b") }
func BenchmarkAblationPrefetchThreshold(b *testing.B) { runExperiment(b, "abl-prefetch") }
func BenchmarkAblationDoorbell(b *testing.B)          { runExperiment(b, "abl-batch") }
func BenchmarkAblationConnectPath(b *testing.B)       { runExperiment(b, "abl-conn") }
func BenchmarkAblationMapScope(b *testing.B)          { runExperiment(b, "abl-scope") }
func BenchmarkComparisonRemoteFork(b *testing.B)      { runExperiment(b, "abl-fork") }
func BenchmarkExtensionMultiHopForward(b *testing.B)  { runExperiment(b, "abl-forward") }
func BenchmarkExtensionAdaptivePrefetch(b *testing.B) { runExperiment(b, "abl-adaptive") }
func BenchmarkAblationCompression(b *testing.B)       { runExperiment(b, "abl-compress") }
func BenchmarkComparisonArrow(b *testing.B)           { runExperiment(b, "abl-arrow") }
