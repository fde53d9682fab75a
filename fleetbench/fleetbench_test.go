package main

import (
	"context"
	"testing"
	"time"

	"edr/internal/core"
)

// tiny shrinks a workload to a size whose rounds take milliseconds,
// keeping its algorithm, fabric, topology kind and traffic model.
func tiny(w Workload) Workload {
	if w.Steady {
		w.Clients, w.Regions = 400, 8
	} else {
		w.Clients = 12
	}
	w.Replicas = 4
	return w
}

func tinyRun(t *testing.T, name string, seed uint64, rounds int) *Result {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Run(ctx, Options{Workload: tiny(w), Seed: seed, Rounds: rounds, Setups: 1, Trace: true})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

func TestTinyRunsPassOracle(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res := tinyRun(t, w.Name, 1, 4)
			if res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%d of %d ops failed: %v", res.Failed, res.Attempted, res.Failures)
			}
			for _, name := range []string{"round_ms_p50", "clients_per_s", "coord_msgs_per_round", "cost_pct_of_opt", "heap_mb"} {
				if v, ok := res.Value(name); !ok || v <= 0 {
					t.Errorf("%s = %v, want > 0", name, v)
				}
			}
		})
	}
}

// countMetrics are the figures that depend only on the inputs, never on
// timing, so one seed must reproduce them exactly.
var countMetrics = []string{"core.iterations_per_round", "coord_msgs_per_round", "coord_bytes_per_round", "core.cost_gap_pct"}

func TestSameSeedSameCounts(t *testing.T) {
	for _, name := range []string{"geo_admm", "steady_10k"} {
		t.Run(name, func(t *testing.T) {
			a, b, c := tinyRun(t, name, 7, 5), tinyRun(t, name, 7, 5), tinyRun(t, name, 8, 5)
			differs := false
			for _, m := range countMetrics {
				va, _ := a.Value(m)
				vb, _ := b.Value(m)
				vc, _ := c.Value(m)
				if va != vb {
					t.Errorf("%s: seed 7 gave %v then %v", m, va, vb)
				}
				if va != vc {
					differs = true
				}
			}
			if !differs {
				t.Errorf("seeds 7 and 8 gave identical counts %v", countMetrics)
			}
		})
	}
}

func TestOracleRejectsCorruptedAssignment(t *testing.T) {
	w, _ := lookupWorkload("geo_admm")
	w = tiny(w)
	w.TCP = false
	traffic, err := NewTraffic(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(w, traffic, false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx := context.Background()
	kept := make([]core.AllocationBody, w.Clients)
	rec, report := runCycle(ctx, f, traffic, traffic.First(), nil, make([]bool, w.Clients), kept, false)
	if rec.failed != 0 || report == nil {
		t.Fatalf("clean round failed: %v", rec.failures)
	}
	or := &Oracle{Prob: traffic.Problem(traffic.First()), Clients: clientAddrs(f), Replicas: f.addrs, Servers: f.replicas}
	if err := or.Check(report, report.Round); err != nil {
		t.Fatalf("oracle rejects the fleet's own round: %v", err)
	}

	// Find a client served by two replicas, so moving load between them
	// keeps its demand and the capacities but breaks the installed plan.
	mask := or.Prob.Allowed()
	row, from, to := -1, -1, -1
	for i, r := range report.Assignment {
		for j, v := range r {
			if v > 0.1 {
				for k := range r {
					if k != j && mask[i][k] {
						row, from, to = i, j, k
					}
				}
			}
		}
	}
	if row < 0 {
		t.Fatal("no client with two feasible replicas")
	}
	corrupt := func(edit func(x [][]float64)) *core.RoundReport {
		c := *report
		c.Assignment = make([][]float64, len(report.Assignment))
		for i, r := range report.Assignment {
			c.Assignment[i] = append([]float64(nil), r...)
		}
		edit(c.Assignment)
		return &c
	}
	cases := map[string]*core.RoundReport{
		"moved load":  corrupt(func(x [][]float64) { x[row][to] += 0.1; x[row][from] -= 0.1 }),
		"lost demand": corrupt(func(x [][]float64) { x[row][from] *= 0.5 }),
		"infeasible link": corrupt(func(x [][]float64) {
			for i := range x {
				for j := range x[i] {
					if !mask[i][j] {
						x[i][j] += 1
						return
					}
				}
			}
			t.Fatal("instance has no infeasible link")
		}),
	}
	for name, bad := range cases {
		if err := or.Check(bad, bad.Round); err == nil {
			t.Errorf("%s: oracle accepted the corrupted assignment", name)
		}
	}
	alloc := kept[row]
	alloc.PerReplicaMB = map[string]float64{}
	for j, v := range report.Assignment[row] {
		if v > 0 {
			alloc.PerReplicaMB[or.Replicas[j]] = v
		}
	}
	alloc.PerReplicaMB[or.Replicas[from]] *= 0.9
	if err := or.CheckAllocation(row, report.Assignment[row], alloc, true); err == nil {
		t.Error("oracle accepted a client allocation that differs from its committed row")
	}
}
