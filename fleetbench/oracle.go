package main

import (
	"errors"
	"fmt"
	"math"

	"edr/internal/core"
	"edr/internal/opt"
)

// deltaEps is core.ReplicaConfig.DeltaEps at its default: the most a
// suppressed (not re-notified) client's row may have moved, relative to
// its demand.
const deltaEps = 1e-3

// relTol is the slack for values that travel exactly (wire floats) or are
// recomputed by a different but equivalent float path (cohort unit
// splits scaled back by demand).
const relTol = 1e-6

// Oracle checks one round's committed output against its inputs.
type Oracle struct {
	Prob     *opt.Problem          // the round's instance: rows = clients, columns = replicas
	Clients  []string              // client addresses, row order
	Replicas []string              // replica addresses, column order
	Servers  []*core.ReplicaServer // column order
}

// Check verifies, for report:
//   - every client appears once and its row conserves its demand;
//   - no replica exceeds its capacity;
//   - nothing is served over a link beyond the latency bound;
//   - every replica's installed plan equals the committed column.
//     planRound is the round whose plan the replicas hold; for a quiet
//     incremental commit that installs nothing it is the last installed
//     round, and rows may then differ by deltaEps of demand.
func (o *Oracle) Check(report *core.RoundReport, planRound int) error {
	if report == nil {
		return errors.New("no report")
	}
	x, err := o.Rows(report)
	if err != nil {
		return err
	}
	p := o.Prob
	mask := p.Allowed()
	for i, d := range p.Demands {
		sum := 0.0
		for j, v := range x[i] {
			if v < -relTol*math.Max(1, d) {
				return fmt.Errorf("client %s: negative load %g on %s", o.Clients[i], v, o.Replicas[j])
			}
			if !mask[i][j] && v > relTol*math.Max(1, d) {
				return fmt.Errorf("client %s: %g MB over infeasible link to %s", o.Clients[i], v, o.Replicas[j])
			}
			sum += v
		}
		if math.Abs(sum-d) > relTol*math.Max(1, d) {
			return fmt.Errorf("client %s: assigned %g MB of demand %g", o.Clients[i], sum, d)
		}
	}
	for j, col := range opt.ColSums(x) {
		if capMB := p.System.Replicas[j].Bandwidth; col > capMB*(1+relTol) {
			return fmt.Errorf("replica %s: load %g MB over capacity %g", o.Replicas[j], col, capMB)
		}
	}
	quiet := report.Incremental && planRound != report.Round
	for j, rs := range o.Servers {
		for i, addr := range o.Clients {
			tol := relTol * math.Max(1, p.Demands[i])
			if quiet {
				tol += deltaEps * p.Demands[i]
			}
			if got := rs.Plan(planRound, addr); math.Abs(got-x[i][j]) > tol {
				return fmt.Errorf("replica %s round %d plans %g MB for %s, committed %g", o.Replicas[j], planRound, got, addr, x[i][j])
			}
		}
	}
	return nil
}

// Rows returns report's assignment after checking that its rows and
// columns are exactly the oracle's clients and replicas, in order.
func (o *Oracle) Rows(report *core.RoundReport) ([][]float64, error) {
	if len(report.ClientAddrs) != len(o.Clients) || len(report.Assignment) != len(o.Clients) {
		return nil, fmt.Errorf("round %d covers %d clients, want %d", report.Round, len(report.ClientAddrs), len(o.Clients))
	}
	if len(report.ReplicaAddrs) != len(o.Replicas) {
		return nil, fmt.Errorf("round %d covers %d replicas, want %d", report.Round, len(report.ReplicaAddrs), len(o.Replicas))
	}
	for j, addr := range report.ReplicaAddrs {
		if addr != o.Replicas[j] {
			return nil, fmt.Errorf("round %d column %d is %s, want %s", report.Round, j, addr, o.Replicas[j])
		}
	}
	for i, addr := range report.ClientAddrs {
		if addr != o.Clients[i] {
			return nil, fmt.Errorf("round %d row %d is %s, want %s", report.Round, i, addr, o.Clients[i])
		}
		if len(report.Assignment[i]) != len(o.Replicas) {
			return nil, fmt.Errorf("round %d row %d has %d columns", report.Round, i, len(report.Assignment[i]))
		}
	}
	return report.Assignment, nil
}

// CheckAllocation verifies one client's allocation against its committed
// row: exactly (up to relTol) when it was pushed this round, within
// deltaEps of demand when the push was suppressed and the client kept an
// older one.
func (o *Oracle) CheckAllocation(i int, row []float64, alloc core.AllocationBody, pushed bool) error {
	d := o.Prob.Demands[i]
	tol := relTol * math.Max(1, d)
	if !pushed {
		tol += deltaEps * d
	}
	seen := 0
	for j, addr := range o.Replicas {
		got, ok := alloc.PerReplicaMB[addr]
		if ok {
			seen++
		}
		if math.Abs(got-row[j]) > tol {
			return fmt.Errorf("client %s holds %g MB on %s, committed %g", o.Clients[i], got, addr, row[j])
		}
	}
	if seen != len(alloc.PerReplicaMB) {
		return fmt.Errorf("client %s allocation names replicas outside the round", o.Clients[i])
	}
	return nil
}

// downloadBytes is what core.Client.Download must return for alloc: the
// replicas serve int(MB × bytesPerMB) bytes each.
func downloadBytes(alloc core.AllocationBody, bytesPerMB int) int {
	n := 0
	for _, mb := range alloc.PerReplicaMB {
		n += int(mb * float64(bytesPerMB))
	}
	return n
}
