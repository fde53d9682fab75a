package lddm

import (
	"testing"

	"edr/internal/model"
	"edr/internal/opt"
	"edr/internal/probgen"
	"edr/internal/sim"
	"edr/internal/solver"
)

func maskedInstance(t *testing.T, r *sim.Rand, clients, replicas int) *opt.Problem {
	return maskedInstanceSpec(t, r, probgen.Spec{Clients: clients, Replicas: replicas, Geo: true})
}

func maskedInstanceSpec(t *testing.T, r *sim.Rand, spec probgen.Spec) *opt.Problem {
	t.Helper()
	for attempt := 0; attempt < 50; attempt++ {
		prob, err := probgen.MustFeasible(r, spec)
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

func TestSolveLocalPackedMatchesDense(t *testing.T) {
	// A client outside the latency bound is absent from the packed client
	// list. Water-filling over the full list with that client's demand
	// zeroed must serve it nothing and give every other client bit for bit
	// the packed result: omission and zero demand are the same constraint.
	r := sim.NewRand(53)
	for trial := 0; trial < 30; trial++ {
		c := r.IntBetween(1, 12)
		rep := model.NewReplica("r", r.Range(1, 20))
		rep.Bandwidth = r.Range(20, 120)
		mu := make([]float64, c)
		demands := make([]float64, c)
		zeroed := make([]float64, c)
		var clients []int
		for i := 0; i < c; i++ {
			mu[i] = r.Range(-2, 2)
			demands[i] = r.Range(0, 30)
			if r.Float64() < 0.7 {
				clients = append(clients, i)
				zeroed[i] = demands[i]
			}
		}
		if clients == nil {
			clients = []int{}
		}
		packed, err := SolveLocal(&LocalProblem{Replica: rep, Mu: mu, Demands: demands, Clients: clients})
		if err != nil {
			t.Fatal(err)
		}
		dense, err := SolveLocal(&LocalProblem{Replica: rep, Mu: mu, Demands: zeroed, Clients: allClients(c)})
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		for i, v := range dense {
			if next < len(clients) && clients[next] == i {
				if packed[next] != v {
					t.Fatalf("trial %d: packed[%d]=%v, full list[%d]=%v", trial, next, packed[next], i, v)
				}
				next++
			} else if v != 0 {
				t.Fatalf("trial %d: omitted client %d served %v", trial, i, v)
			}
		}
	}
}

func TestLDDMSparseMatchesCentral(t *testing.T) {
	r := sim.NewRand(61)
	prob := maskedInstance(t, r, 8, 4)
	res, err := New().Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	if err := solver.Verify(prob, res, 1e-4); err != nil {
		t.Fatal(err)
	}
}

func TestLDDMSparseParallelSerialBitForBit(t *testing.T) {
	r := sim.NewRand(67)
	prob := maskedInstanceSpec(t, r, probgen.Spec{Clients: 40, Replicas: 6, Geo: true, DemandLo: 1, DemandHi: 6})
	serial, err := (&Solver{Parallelism: -1, MaxIters: 500}).Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := (&Solver{Parallelism: 4, MaxIters: 500}).Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Iterations != parallel.Iterations {
		t.Fatalf("iterations differ: %d vs %d", serial.Iterations, parallel.Iterations)
	}
	for c := range serial.Assignment {
		for n := range serial.Assignment[c] {
			if serial.Assignment[c][n] != parallel.Assignment[c][n] {
				t.Fatalf("assignment differs at [%d][%d]", c, n)
			}
		}
	}
}

func TestLDDMSparseCommCountsNNZ(t *testing.T) {
	r := sim.NewRand(71)
	prob := maskedInstance(t, r, 8, 4)
	nnz := prob.Sparsity().NNZ()
	res, err := (&Solver{MaxIters: 100}).Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Comm.Scalars/res.Iterations, 2*nnz; got != want {
		t.Fatalf("scalars/iteration = %d, want %d (2·nnz)", got, want)
	}
}
