package admm

import (
	"math"
	"testing"

	"edr/internal/model"
	"edr/internal/opt"
	"edr/internal/probgen"
	"edr/internal/sim"
)

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

// proximalColumnDense is the dense reference for ProximalColumn: the same
// ternary search over the column sum, on full-length vectors with a
// latency mask. Masked entries contribute only the constant (0 − target_i)²
// to the distance, so the penalty is summed over the support only — the
// constant is irrelevant to the argmin but large enough to drown the h1/h2
// comparison in rounding noise once the ternary interval is small.
func proximalColumnDense(rep model.Replica, allowed []bool, caps, target []float64, rho float64, iters int) ([]float64, error) {
	c := len(target)
	capSum := 0.0
	for i := 0; i < c; i++ {
		if allowed[i] {
			capSum += caps[i]
		}
	}
	z := make([]float64, c)
	maxS := math.Min(rep.Bandwidth, capSum)
	if maxS <= 0 {
		return z, nil
	}
	probe := make([]float64, c)
	eval := func(S float64) (float64, error) {
		copy(probe, target)
		if err := projectMaskedCappedSimplex(probe, caps, allowed, S); err != nil {
			return 0, err
		}
		d := 0.0
		for i := 0; i < c; i++ {
			if allowed[i] {
				diff := probe[i] - target[i]
				d += diff * diff
			}
		}
		return rep.Cost(S) + rho/2*d, nil
	}
	lo, hi := 0.0, maxS
	for it := 0; it < iters && hi-lo > 1e-9*(1+maxS); it++ {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		h1, err := eval(m1)
		if err != nil {
			return nil, err
		}
		h2, err := eval(m2)
		if err != nil {
			return nil, err
		}
		if h1 <= h2 {
			hi = m2
		} else {
			lo = m1
		}
	}
	copy(z, target)
	if err := projectMaskedCappedSimplex(z, caps, allowed, (lo+hi)/2); err != nil {
		return nil, err
	}
	return z, nil
}

// projectMaskedCappedSimplex projects x onto {y : Σy = s, 0 ≤ y ≤ u,
// y_i = 0 where !allowed_i} in place.
func projectMaskedCappedSimplex(x, u []float64, allowed []bool, s float64) error {
	var sub, subU []float64
	for i, ok := range allowed {
		if ok {
			sub = append(sub, x[i])
			subU = append(subU, u[i])
		}
	}
	if err := opt.ProjectCappedSimplex(sub, subU, s); err != nil {
		return err
	}
	k := 0
	for i, ok := range allowed {
		x[i] = 0
		if ok {
			x[i] = sub[k]
			k++
		}
	}
	return nil
}

func TestProximalColumnPackedMatchesDense(t *testing.T) {
	// The packed proximal drops only constant (masked-entry) penalty terms
	// from the dense evaluation, so the two ternary searches minimize the
	// same function and land on the same column up to the 1-D tolerance.
	r := sim.NewRand(73)
	for trial := 0; trial < 30; trial++ {
		c := r.IntBetween(1, 10)
		rep := model.NewReplica("r", r.Range(1, 20))
		rep.Bandwidth = r.Range(20, 120)
		allowed := make([]bool, c)
		caps := make([]float64, c)
		target := make([]float64, c)
		packedCaps := []float64{}
		packedTarget := []float64{}
		idx := []int{}
		for i := 0; i < c; i++ {
			allowed[i] = r.Float64() < 0.7
			caps[i] = r.Range(0, 30)
			target[i] = r.Range(-10, 30)
			if allowed[i] {
				packedCaps = append(packedCaps, caps[i])
				packedTarget = append(packedTarget, target[i])
				idx = append(idx, i)
			}
		}
		rho := r.Range(0.01, 2)
		dense, err := proximalColumnDense(rep, allowed, caps, target, rho, 60)
		if err != nil {
			t.Fatal(err)
		}
		packed, err := ProximalColumn(rep, packedCaps, packedTarget, rho, 60)
		if err != nil {
			t.Fatal(err)
		}
		for p, i := range idx {
			if math.Abs(packed[p]-dense[i]) > 1e-6*(1+math.Abs(dense[i])) {
				t.Fatalf("trial %d: packed[%d]=%v, dense[%d]=%v", trial, p, packed[p], i, dense[i])
			}
		}
		for i, v := range dense {
			if !allowed[i] && v != 0 {
				t.Fatalf("trial %d: dense wrote masked client %d", trial, i)
			}
		}
	}
}

func TestADMMSparseParallelSerialBitForBit(t *testing.T) {
	r := sim.NewRand(83)
	prob := maskedInstance(t, r, 20, 5)
	serial, err := (&Solver{Parallelism: -1, MaxIters: 200}).Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := (&Solver{Parallelism: 4, MaxIters: 200}).Solve(prob)
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

func TestADMMSparseCommCountsNNZ(t *testing.T) {
	r := sim.NewRand(89)
	prob := maskedInstance(t, r, 8, 4)
	nnz := prob.Sparsity().NNZ()
	res, err := (&Solver{MaxIters: 60}).Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Comm.Scalars/res.Iterations, 2*nnz; got != want {
		t.Fatalf("scalars/iteration = %d, want %d (2·nnz)", got, want)
	}
}
