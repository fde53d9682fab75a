package opt

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"edr/internal/sim"
)

// This file holds the dense matrix Dykstra projection — the independent
// reference the packed projector (ProjectFeasiblePar) is checked against —
// and the tests of its building blocks.

// setProjection projects its argument matrix onto one convex set, in place.
type setProjection func(x [][]float64) error

// dykstra projects x in place onto the intersection of the given sets and
// returns the number of sweeps performed, or an error if any individual
// projection fails.
func dykstra(x [][]float64, sets []setProjection, opts DykstraOptions) (int, error) {
	opts.defaults()
	if len(sets) == 0 {
		return 0, nil
	}
	rows := len(x)
	cols := 0
	if rows > 0 {
		cols = len(x[0])
	}
	corrections := make([][][]float64, len(sets))
	for i := range corrections {
		corrections[i] = NewMatrix(rows, cols)
	}
	scratch := NewMatrix(rows, cols)
	inAllSets := func() (bool, error) {
		for i, project := range sets {
			Copy(scratch, x)
			if err := project(scratch); err != nil {
				return false, fmt.Errorf("opt: dykstra set %d: %w", i, err)
			}
			if Dist(scratch, x) > opts.Tol {
				return false, nil
			}
		}
		return true, nil
	}
	for sweep := 1; sweep <= opts.MaxSweeps; sweep++ {
		for i, project := range sets {
			// y = x + correction_i ; x = P_i(y) ; correction_i = y − x.
			Add(x, corrections[i])
			Copy(corrections[i], x)
			if err := project(x); err != nil {
				return sweep, fmt.Errorf("opt: dykstra set %d: %w", i, err)
			}
			Sub(corrections[i], x)
		}
		ok, err := inAllSets()
		if err != nil {
			return sweep, err
		}
		if ok {
			return sweep, nil
		}
	}
	return opts.MaxSweeps, nil
}

// projectHalfspaceSumLE projects x in place onto {y : Σy ≤ b}: the excess,
// if any, is removed uniformly.
func projectHalfspaceSumLE(x []float64, b float64) {
	sum := 0.0
	for _, v := range x {
		sum += v
	}
	if sum <= b {
		return
	}
	shift := (sum - b) / float64(len(x))
	for i := range x {
		x[i] -= shift
	}
}

// projectMaskedCappedSimplex projects x onto
// {y : Σy = s, 0 ≤ y_i ≤ u_i, y_i = 0 where !allowed_i} in place.
func projectMaskedCappedSimplex(x, u []float64, allowed []bool, s float64) error {
	var idx []int
	for i, ok := range allowed {
		if ok {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 && s > 1e-12 {
		return fmt.Errorf("opt: no feasible coordinate for required sum %g", s)
	}
	sub := make([]float64, len(idx))
	subU := make([]float64, len(idx))
	for k, i := range idx {
		sub[k] = x[i]
		subU[k] = u[i]
	}
	if len(idx) > 0 {
		if err := ProjectCappedSimplex(sub, subU, s); err != nil {
			return err
		}
	}
	for i := range x {
		x[i] = 0
	}
	for k, i := range idx {
		x[i] = sub[k]
	}
	return nil
}

// projectFeasibleDense is the dense reference for ProjectFeasible: matrix
// Dykstra over the per-row masked capped simplexes and the per-column
// capacity halfspaces, then an exact row pass and the same verification.
func projectFeasibleDense(prob *Problem, x [][]float64, tol float64) error {
	mask := prob.Allowed()
	caps := prob.Caps()
	rows := func(x [][]float64) error {
		for c := range x {
			if err := projectMaskedCappedSimplex(x[c], caps[c], mask[c], prob.Demands[c]); err != nil {
				return fmt.Errorf("client %d: %w", c, err)
			}
		}
		return nil
	}
	col := make([]float64, prob.C())
	cols := func(x [][]float64) error {
		for j := 0; j < prob.N(); j++ {
			for c := range x {
				col[c] = x[c][j]
			}
			projectHalfspaceSumLE(col, prob.System.Replicas[j].Bandwidth)
			for c := range x {
				x[c][j] = col[c]
			}
		}
		return nil
	}
	if _, err := dykstra(x, []setProjection{rows, cols}, DykstraOptions{MaxSweeps: 5000, Tol: tol / 10}); err != nil {
		return err
	}
	if err := rows(x); err != nil {
		return err
	}
	if v := prob.Violation(x); v > tol {
		return fmt.Errorf("opt: dense projection left violation %g > tol %g", v, tol)
	}
	return nil
}

func TestDykstraNoSets(t *testing.T) {
	x := [][]float64{{1, 2}}
	sweeps, err := dykstra(x, nil, DykstraOptions{})
	if err != nil || sweeps != 0 {
		t.Fatalf("dykstra(no sets) = (%d, %v)", sweeps, err)
	}
}

func TestDykstraSingleSetIsPlainProjection(t *testing.T) {
	x := [][]float64{{3, 3}}
	set := func(m [][]float64) error {
		ProjectSimplex(m[0], 2)
		return nil
	}
	if _, err := dykstra(x, []setProjection{set}, DykstraOptions{}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0][0]-1) > 1e-9 || math.Abs(x[0][1]-1) > 1e-9 {
		t.Fatalf("got %v, want (1,1)", x)
	}
}

// Intersecting two halfplanes in R²: x ≥ 1 (as a box clip) and x + y ≤ 1.
// Nearest point to (3,3): minimize (x−3)²+(y−3)² s.t. x≥1, x+y≤1. On the
// boundary x+y=1 the unconstrained minimizer is x=y=0.5, but x≥1 binds ⇒
// x=1, y=0.
func TestDykstraTwoHalfplanes(t *testing.T) {
	x := [][]float64{{3, 3}}
	setA := func(m [][]float64) error { // x ≥ 1
		if m[0][0] < 1 {
			m[0][0] = 1
		}
		return nil
	}
	setB := func(m [][]float64) error { // x + y ≤ 1
		projectHalfspaceSumLE(m[0], 1)
		return nil
	}
	if _, err := dykstra(x, []setProjection{setA, setB}, DykstraOptions{MaxSweeps: 2000, Tol: 1e-12}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0][0]-1) > 1e-6 || math.Abs(x[0][1]-0) > 1e-6 {
		t.Fatalf("projection = %v, want (1, 0)", x)
	}
}

func TestDykstraPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	x := [][]float64{{1}}
	set := func([][]float64) error { return boom }
	if _, err := dykstra(x, []setProjection{set}, DykstraOptions{}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestProjectFeasibleSatisfiesAllConstraints(t *testing.T) {
	p := testProblem(t, []float64{1, 8, 3}, []float64{40, 70, 20})
	p.Latency[0][1] = 0.01 // client 0 may not use replica 1
	x, err := p.UniformStart()
	if err != nil {
		t.Fatal(err)
	}
	// Perturb away from feasibility.
	x[1][0] += 55
	x[2][2] -= 10
	if err := ProjectFeasible(p, x, 1e-6); err != nil {
		t.Fatal(err)
	}
	if v := p.Violation(x); v > 1e-5 {
		t.Fatalf("violation after projection = %g", v)
	}
	if x[0][1] != 0 {
		t.Fatalf("masked entry nonzero: %g", x[0][1])
	}
}

// Property: projection of an already-feasible point stays (almost) put.
func TestProjectFeasibleFixedPointProperty(t *testing.T) {
	r := sim.NewRand(321)
	for trial := 0; trial < 30; trial++ {
		p := randomProblem(t, r, 4, 3)
		x, err := FeasiblePoint(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		before := Clone(x)
		if err := ProjectFeasible(p, x, 1e-6); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if d := Dist(before, x); d > 1e-4*(1+Norm(before)) {
			t.Fatalf("trial %d: feasible point moved by %g", trial, d)
		}
	}
}

// Property: projection output is feasible for random infeasible inputs.
func TestProjectFeasibleAlwaysFeasibleProperty(t *testing.T) {
	r := sim.NewRand(654)
	for trial := 0; trial < 30; trial++ {
		p := randomProblem(t, r, 5, 4)
		x := NewMatrix(p.C(), p.N())
		for c := range x {
			for n := range x[c] {
				x[c][n] = r.Range(-10, 40)
			}
		}
		if err := ProjectFeasible(p, x, 1e-5); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if v := p.Violation(x); v > 1e-4 {
			t.Fatalf("trial %d: violation %g", trial, v)
		}
	}
}

func TestProjectFeasibleInfeasibleInstance(t *testing.T) {
	// Total demand 500 exceeds total capacity 200.
	p := testProblem(t, []float64{1, 2}, []float64{500})
	x, _ := p.UniformStart()
	if err := ProjectFeasible(p, x, 1e-6); err == nil {
		t.Fatal("infeasible instance projected without error")
	}
}
