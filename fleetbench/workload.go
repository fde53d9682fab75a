package main

import (
	"fmt"

	"edr/internal/cohort"
	"edr/internal/core"
	"edr/internal/opt"
	"edr/internal/probgen"
	"edr/internal/sim"
	"edr/internal/workload"
)

// Workload is one fleet configuration and traffic model.
type Workload struct {
	Name      string
	Clients   int
	Replicas  int
	Regions   int  // > 0: probgen's region-structured topology
	Geo       bool // probgen's wide-area topology (ignored when Regions > 0)
	Algorithm core.Algorithm
	TCP       bool // real TCP loopback; otherwise transport.InProcNetwork
	// Steady selects the steady-state traffic model: demands drift by
	// Drift each round instead of being drawn fresh, the fleet runs
	// cohorted incremental rounds, most clients are persistent and
	// OneShotFrac of them are one-shot each round.
	Steady      bool
	Drift       workload.Drift
	OneShotFrac float64
	// DemandLo and DemandHi bound drawn demands (MB).
	DemandLo, DemandHi float64
}

var workloads = []Workload{
	{
		// The paper's SystemG-style cluster: every link within T, so the
		// mask is full and the dense kernels run. Transport- and
		// iteration-bound: ~22k one-shot TCP exchanges a round, 20k of
		// them client μ-updates, and LDDM runs to its iteration cap.
		Name:      "cluster_lddm",
		Clients:   100,
		Replicas:  10,
		Algorithm: core.LDDM,
		TCP:       true,
		DemandLo:  1, DemandHi: 6,
	},
	{
		// Wide-area (~72 % of links feasible): packed kernels and kinded
		// delta frames; the participants' proximal kernel does much of
		// the work, with about 10x fewer messages than LDDM.
		Name:      "geo_admm",
		Clients:   100,
		Replicas:  10,
		Geo:       true,
		Algorithm: core.ADMM,
		TCP:       true,
		DemandLo:  1, DemandHi: 6,
	},
	{
		// The same instance under CDPSM: a few large estimate pulls
		// instead of thousands of small messages, and the only run of
		// internal/cdpsm, whose early stop shows in the cost metric.
		Name:      "geo_cdpsm",
		Clients:   100,
		Replicas:  10,
		Geo:       true,
		Algorithm: core.CDPSM,
		TCP:       true,
		DemandLo:  1, DemandHi: 6,
	},
	{
		// Client scale in steady state: after the cold round the work is
		// the diff, the cohort registry, the dirty-subset solve,
		// suppressed fan-out and pulls. In-process: over TCP at this size
		// the first round does not finish (see README.md).
		Name:        "steady_10k",
		Clients:     10000,
		Replicas:    10,
		Regions:     50,
		Algorithm:   core.LDDM,
		Steady:      true,
		Drift:       workload.Drift{Fraction: 0.01, Magnitude: 0.2},
		OneShotFrac: 0.01,
		DemandLo:    0.005, DemandHi: 0.05,
	},
}

func lookupWorkload(name string) (Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// instanceSeed fixes each workload's instance (topology, prices and
// capacities): it is part of the workload's definition, like the paper's
// SystemG cluster. The run's --seed draws the traffic on it — every
// round's demands and the one-shot clients — so runs with different seeds
// sample one system under different traffic, and the spread between them
// is the traffic's, not a different system's.
const instanceSeed = 1

// Traffic generates a workload's instance and, from the run's seed, its
// per-round inputs: independent streams for the demands and the one-shot
// draw, so the same seed gives the same inputs however the rounds are
// timed.
type Traffic struct {
	w       Workload
	base    *opt.Problem
	demands []float64
	first   []float64
	dr, or  *sim.Rand
}

// NewTraffic builds the instance and draws the cold round's demands.
func NewTraffic(w Workload, seed uint64) (*Traffic, error) {
	base, err := probgen.New(sim.NewRand(instanceSeed), probgen.Spec{
		Clients:  w.Clients,
		Replicas: w.Replicas,
		Regions:  w.Regions,
		Geo:      w.Geo,
		DemandLo: w.DemandLo,
		DemandHi: w.DemandHi,
	})
	if err != nil {
		return nil, err
	}
	root := sim.NewRand(seed)
	t := &Traffic{w: w, base: base, dr: root.Split(), or: root.Split()}
	if t.demands, err = t.fresh(); err != nil {
		return nil, err
	}
	t.first = t.demands
	return t, nil
}

// Problem returns the instance with the given demands.
func (t *Traffic) Problem(demands []float64) *opt.Problem {
	return &opt.Problem{
		System:     t.base.System,
		Demands:    demands,
		Latency:    t.base.Latency,
		MaxLatency: t.base.MaxLatency,
	}
}

// First returns the cold round's demands.
func (t *Traffic) First() []float64 { return t.first }

// Next returns the next round's demands: drifted from the previous round
// in the steady model, otherwise drawn fresh.
func (t *Traffic) Next() ([]float64, error) {
	if t.w.Steady {
		t.demands = t.w.Drift.Apply(t.dr, t.demands)
		return t.demands, nil
	}
	d, err := t.fresh()
	if err != nil {
		return nil, err
	}
	t.demands = d
	return d, nil
}

// fresh draws every client's demand uniformly from the workload's range,
// redrawing until the round is feasible, so no round fails on its inputs.
func (t *Traffic) fresh() ([]float64, error) {
	for attempt := 0; attempt < 50; attempt++ {
		d := make([]float64, t.w.Clients)
		for i := range d {
			d[i] = t.dr.Range(t.w.DemandLo, t.w.DemandHi)
		}
		if feasible(t.Problem(d)) {
			return d, nil
		}
	}
	return nil, fmt.Errorf("%s: no feasible demand draw in 50 tries", t.w.Name)
}

// OneShot draws which clients act one-shot this round.
func (t *Traffic) OneShot() []bool {
	out := make([]bool, t.w.Clients)
	if !t.w.Steady {
		return out
	}
	k := int(t.w.OneShotFrac*float64(t.w.Clients) + 0.5)
	for _, i := range t.or.Perm(t.w.Clients)[:k] {
		out[i] = true
	}
	return out
}

// feasible runs the max-flow oracle on prob's cohort-reduced instance:
// aggregation keeps every cohort's mask and sums its demands, so the
// reduced instance is feasible exactly when prob is, and at 10k clients
// it is three orders of magnitude cheaper to check.
func feasible(prob *opt.Problem) bool {
	g, err := cohort.Group(prob, cohort.Options{})
	return err == nil && opt.CheckFeasible(g.Reduced()) == nil
}
