package core

import (
	"context"
	"math"
	"testing"

	"edr/internal/model"
	"edr/internal/opt"
	"edr/internal/transport"
)

// newFleetCfg is newFleet with a per-replica config hook, for tests that
// exercise the wire-codec and parallelism knobs.
func newFleetCfg(t *testing.T, prices []float64, nClients int, alg Algorithm, mutate func(i int, cfg *ReplicaConfig)) *fleet {
	t.Helper()
	f := &fleet{net: transport.NewInProcNetwork()}
	names := make([]string, len(prices))
	for i := range prices {
		names[i] = replicaName(i)
	}
	for i, price := range prices {
		cfg := ReplicaConfig{
			Replica:   model.NewReplica(replicaName(i), price),
			Algorithm: alg,
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		rs, err := NewReplicaServer(f.net, replicaName(i), names, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rs.Close() })
		f.replicas = append(f.replicas, rs)
	}
	for i := 0; i < nClients; i++ {
		cl, err := NewClient(f.net, clientName(i))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		f.clients = append(f.clients, cl)
	}
	return f
}

// runOneRound submits one request per client and drives a round from
// replica 0, returning the report after checking total served bytes.
func runOneRound(t *testing.T, f *fleet) *RoundReport {
	t.Helper()
	ctx := context.Background()
	demands := []float64{30, 20, 25}[:len(f.clients)]
	want := 0.0
	for i, cl := range f.clients {
		if err := cl.Submit(ctx, f.replicas[0].Addr(), demands[i], f.uniformLatencies()); err != nil {
			t.Fatal(err)
		}
		want += demands[i]
	}
	report, err := f.replicas[0].RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, r := range opt.RowSums(report.Assignment) {
		total += r
	}
	if math.Abs(total-want) > 0.1 {
		t.Fatalf("total served = %g, want %g", total, want)
	}
	return report
}

// A fleet with explicit solver parallelism runs live rounds through the
// parallel kernels; under the CI -race step this doubles as the data-race
// check on the fan-out paths.
func TestRoundParallelKernels(t *testing.T) {
	for _, alg := range []Algorithm{LDDM, CDPSM, ADMM} {
		t.Run(alg.String(), func(t *testing.T) {
			f := newFleetCfg(t, []float64{1, 10, 5}, 3, alg, func(i int, cfg *ReplicaConfig) {
				cfg.Parallelism = 8
			})
			runOneRound(t, f)
		})
	}
}
