package cdpsm

import (
	"testing"

	"edr/internal/opt"
	"edr/internal/probgen"
	"edr/internal/sim"
)

// maskedInstance draws a feasible wide-area instance whose latency mask has
// structural zeros (retrying until it does).
func maskedInstance(t *testing.T, r *sim.Rand, clients, replicas int) *opt.Problem {
	t.Helper()
	for attempt := 0; attempt < 50; attempt++ {
		prob, err := probgen.MustFeasible(r, probgen.Spec{Clients: clients, Replicas: replicas, Geo: true})
		if err != nil {
			t.Fatal(err)
		}
		if !prob.Sparsity().Full {
			return prob
		}
	}
	t.Fatal("no masked instance in 50 draws")
	return nil
}

func TestCDPSMSparseParallelSerialBitForBit(t *testing.T) {
	// Each agent writes only its own packed estimate and the projector's
	// incremental sums are chunking-independent, so fanning the agents
	// across cores must not change a single bit.
	r := sim.NewRand(43)
	prob := maskedInstance(t, r, 12, 5)
	serial, err := (&Solver{Parallelism: -1, MaxIters: 300}).Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := (&Solver{Parallelism: 4, MaxIters: 300}).Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Iterations != parallel.Iterations {
		t.Fatalf("iterations differ: %d vs %d", serial.Iterations, parallel.Iterations)
	}
	for c := range serial.Assignment {
		for n := range serial.Assignment[c] {
			if serial.Assignment[c][n] != parallel.Assignment[c][n] {
				t.Fatalf("assignment differs at [%d][%d]: %v vs %v",
					c, n, serial.Assignment[c][n], parallel.Assignment[c][n])
			}
		}
	}
}

func TestCDPSMSparseCommCountsNNZ(t *testing.T) {
	r := sim.NewRand(47)
	prob := maskedInstance(t, r, 8, 4)
	sp := prob.Sparsity()
	res, err := (&Solver{MaxIters: 50}).Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	perIter := res.Comm.Scalars / res.Iterations
	want := prob.N() * (prob.N() - 1) * sp.NNZ()
	if perIter != want {
		t.Fatalf("scalars/iteration = %d, want %d (N·(N−1)·nnz)", perIter, want)
	}
	if sp.NNZ() >= prob.C()*prob.N() && perIter >= prob.N()*(prob.N()-1)*prob.C()*prob.N() {
		t.Fatal("sparse comm accounting no cheaper than dense on a masked instance")
	}
}
