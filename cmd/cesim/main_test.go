package main

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/systems"
)

// TestParallelSampleMatchesSequential renders cesim's sample from the
// parallel repetition path it runs and from the sequential one, with
// Poisson arrivals and with a fault-mix process shared by the
// repetitions, and requires byte-identical output.
func TestParallelSampleMatchesSequential(t *testing.T) {
	exp, err := core.NewExperiment(core.ExperimentConfig{Workload: "minife", Nodes: 16, Iterations: 4, TraceSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const mtbce, perEvent = int64(20e6), int64(500e3)
	mix, err := systems.ResolveFaultMix("bursty-row")
	if err != nil {
		t.Fatal(err)
	}
	proc, err := mix.WithMTBCE(mtbce).Process()
	if err != nil {
		t.Fatal(err)
	}
	for name, arrivals := range map[string]noise.Arrivals{"poisson": nil, "fault-mix": proc} {
		sc := core.Scenario{
			MTBCE: mtbce, Arrivals: arrivals, PerEvent: noise.Fixed(perEvent),
			Target: noise.AllNodes, Seed: 2,
		}
		render := func(rep *core.Repeated, err error) []byte {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := sampleTable("minife", exp, sc, perEvent, rep).WriteASCII(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		seq := render(exp.RunRepeated(sc, 6))
		par := render(exp.RunRepeatedParallel(sc, 6, 0))
		if !bytes.Equal(seq, par) {
			t.Fatalf("%s: parallel sample differs:\n%s\nvs sequential\n%s", name, par, seq)
		}
	}
}
