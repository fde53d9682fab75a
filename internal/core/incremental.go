package core

import (
	"context"
	"edr/internal/cohort"
	"edr/internal/opt"
	"errors"
	"math"
)

// errEscalateFull is the incremental path's verdict that this round needs
// a full solve: the dirty subproblem was infeasible against residual
// capacity, or the merged result failed the feasibility/KKT gate.
// runRoundOnce answers it by re-running the attempt with the incremental
// path disabled — escalation costs one extra attempt, never a wrong
// assignment.
var errEscalateFull = errors.New("core: incremental result rejected; escalating to full solve")

// incrementalPlan is one round's dirty-set work order, produced by
// planIncremental: the diff against the committed round plus the merged
// matrix scaffold the sub-solve completes.
type incrementalPlan struct {
	delta *opt.RoundDelta
	// base is the full |C|×|N| merged-assignment scaffold: clean rows
	// carry the committed row (columns permuted to this round's order,
	// rescaled by demand ratio so row sums land exactly on the new
	// demands); dirty rows are zero until the sub-solve fills them.
	base [][]float64
	// prev[i] is client i's committed row in this round's column order,
	// unrescaled (nil for clients with no history) — the reference the
	// change-suppressed notify fan-out compares against.
	prev [][]float64
	// instPrev[i] is client i's row of the *installed* assignment in this
	// round's column order — the values replicas actually hold under
	// lg.installedRound, which the delta install diffs against. Equal to
	// prev except after clean commits (which rescale without installing).
	instPrev [][]float64
	// departed lists committed clients absent from this round: the delta
	// install must remove them from the base plan.
	departed []string
	// frozen[j] is the clean rows' load on column j; residual[j] is the
	// bandwidth left for the dirty subproblem (floored at a hair above
	// zero so the sub-instance always validates).
	frozen, residual []float64
	// baseGap is the committed assignment's own KKT gap on the committed
	// problem: the stationarity quality a full solve actually delivers at
	// the configured tolerance, and so the yardstick the incremental
	// result is gated against (an absolute gate would reject merged
	// results no worse than the full solve it escalates to).
	baseGap float64
	// lg is the committed round the plan diffed against.
	lg *lastGoodRound
}

// planIncremental diffs this round against the committed one. It returns
// nil — full solve, no escalation accounting — when there is no usable
// history or the replica roster changed (a membership epoch change shifts
// every column and cohort key, so incremental state is reset wholesale).
func (r *ReplicaServer) planIncremental(requests []*RequestBody, infos []ReplicaInfo, prob *opt.Problem) *incrementalPlan {
	r.mu.Lock()
	lg := r.lastGood
	r.mu.Unlock()
	if lg == nil || lg.prob == nil {
		return nil
	}
	if len(lg.infos) != len(infos) {
		r.registry.Reset()
		return nil
	}
	colOf := make(map[string]int, len(lg.infos))
	for j, info := range lg.infos {
		colOf[info.Addr] = j
	}
	colMap := make([]int, len(infos))
	for j, info := range infos {
		oj, ok := colOf[info.Addr]
		if !ok {
			r.registry.Reset()
			return nil
		}
		colMap[j] = oj
	}
	rowOf := make(map[string]int, len(lg.clientAddrs))
	for i, addr := range lg.clientAddrs {
		rowOf[addr] = i
	}
	rowMap := make([]int, len(requests))
	for i, req := range requests {
		if row, ok := rowOf[req.ClientAddr]; ok {
			rowMap[i] = row
		} else {
			rowMap[i] = -1
		}
	}
	delta, err := opt.DiffRounds(lg.prob, prob, rowMap, colMap, r.cfg.DeltaEps)
	if err != nil {
		return nil
	}
	if 2*len(delta.DirtyClients) > len(requests) {
		// A dirty majority: the sub-instance is most of the full instance,
		// so the incremental machinery can only add overhead (and its
		// frozen-base decomposition rests on a thin clean set, so the gate
		// would likely escalate anyway). Solve in full, as a plan — not an
		// escalation.
		return nil
	}

	n := len(infos)
	plan := &incrementalPlan{
		delta:    delta,
		base:     opt.NewMatrix(len(requests), n),
		prev:     make([][]float64, len(requests)),
		frozen:   make([]float64, n),
		residual: make([]float64, n),
		lg:       lg,
	}
	haveInstall := lg.installedRound > 0 && len(lg.installed) == len(lg.clientAddrs)
	if haveInstall {
		plan.instPrev = make([][]float64, len(requests))
	}
	for i := range requests {
		pr := rowMap[i]
		if pr < 0 {
			continue
		}
		row := make([]float64, n)
		for j := 0; j < n; j++ {
			row[j] = lg.assignment[pr][colMap[j]]
		}
		plan.prev[i] = row
		if haveInstall {
			irow := make([]float64, n)
			for j := 0; j < n; j++ {
				irow[j] = lg.installed[pr][colMap[j]]
			}
			plan.instPrev[i] = irow
		}
	}
	if len(lg.clientAddrs) != len(requests) {
		here := make(map[string]bool, len(requests))
		for _, req := range requests {
			here[req.ClientAddr] = true
		}
		for _, addr := range lg.clientAddrs {
			if !here[addr] {
				plan.departed = append(plan.departed, addr)
			}
		}
	}
	for _, i := range delta.CleanClients {
		dOld := lg.prob.Demands[rowMap[i]]
		if dOld <= 0 {
			// A clean client with zero historical demand cannot be
			// rescaled onto its new demand; admission guarantees positive
			// demands, so treat the inconsistency as no-history.
			return nil
		}
		// Rescale the committed row by the (within-epsilon) demand ratio:
		// clean row sums then equal the new demands exactly, so the merged
		// matrix conserves demand by construction.
		ratio := prob.Demands[i] / dOld
		for j := 0; j < n; j++ {
			v := plan.prev[i][j] * ratio
			plan.base[i][j] = v
			plan.frozen[j] += v
		}
	}
	for j, info := range infos {
		res := info.Bandwidth - plan.frozen[j]
		if floor := 1e-12 * math.Max(1, info.Bandwidth); res < floor {
			// Clean rows already hold (essentially) the whole column; keep
			// a sliver so the sub-instance validates. If a dirty client
			// truly needs this column, the feasibility check escalates.
			res = floor
		}
		plan.residual[j] = res
	}
	plan.baseGap = opt.KKTGap(lg.prob, lg.assignment)
	return plan
}

// runIncremental executes the dirty-subset round: solve the dirty clients
// against residual capacity with clean column loads frozen into the
// energy model, merge with the committed rows, gate the merged result,
// and fan out only what changed. spec/prob are the round's full
// per-client instance; the returned report is full-roster like any other
// round's. A round with an empty dirty set re-commits the (rescaled)
// committed assignment with no install or notify fan-out at all: the
// replicas keep serving their installed plans, so the install reference
// carries over, and every client's notify is suppressed.
func (r *ReplicaServer) runIncremental(ctx context.Context, requests []*RequestBody, spec *RoundSpec, prob *opt.Problem, plan *incrementalPlan, restarts int) (*RoundReport, error) {
	commit := &lastGoodRound{
		round:          spec.Round,
		infos:          spec.Replicas,
		clientAddrs:    spec.ClientAddrs,
		assignment:     plan.base,
		mus:            plan.lg.mus,
		prob:           prob,
		installed:      plan.lg.installed,
		installedRound: plan.lg.installedRound,
	}
	var (
		iterations  int
		suppressed  = len(spec.ClientAddrs)
		grouping    *cohort.Grouping
		warmStarted bool
	)
	if plan.delta.Dirty() {
		var err error
		if iterations, grouping, warmStarted, err = r.solveDirty(requests, spec, prob, plan); err != nil {
			return nil, err
		}
		merged := plan.base
		// Install on every replica, then notify only clients whose row
		// actually moved. When the committed round's install is
		// addressable, each replica gets a delta against it — O(dirty)
		// entries instead of the full |C| column.
		src := denseInstall(spec.Round, spec.ClientAddrs, merged)
		if plan.instPrev != nil {
			src = deltaInstall(spec.Round, plan.lg.installedRound, spec.ClientAddrs, merged, plan.instPrev, plan.departed)
		}
		if err := r.installPlan(ctx, spec.Replicas, src, false); err != nil {
			return nil, err
		}
		suppressed = r.notifyMoved(ctx, spec.Round, spec.ClientAddrs, spec.Replicas, merged, plan.prev, prob.Demands, iterations)
		commit.installed, commit.installedRound = merged, spec.Round
		commit.mus = r.dirtyDuals(spec, prob, plan)
	}
	commit.objective = prob.Cost(commit.assignment)
	report := r.commitRound(commit, restarts, iterations, grouping)
	r.Stats.RoundsIncremental.Inc(1)
	report.WarmStarted = warmStarted
	report.Incremental = true
	report.DirtyClients = len(plan.delta.DirtyClients)
	report.SuppressedNotifies = suppressed
	return report, nil
}

// solveDirty solves the dirty subproblem and writes its rows into
// plan.base, turning the scaffold into the merged assignment, then gates
// the merged result. Any failure is errEscalateFull.
func (r *ReplicaServer) solveDirty(requests []*RequestBody, spec *RoundSpec, prob *opt.Problem, plan *incrementalPlan) (iterations int, grouping *cohort.Grouping, warmStarted bool, err error) {
	defer r.pool.Release()
	dirty := plan.delta.DirtyClients

	// The dirty subproblem: rows are the dirty clients; columns keep this
	// round's order but carry residual capacity and the frozen base load,
	// so the solver optimizes the true global objective restricted to the
	// dirty rows (the frozen part contributes a constant).
	subInfos := make([]ReplicaInfo, len(spec.Replicas))
	for j, info := range spec.Replicas {
		info.Bandwidth = plan.residual[j]
		info.BaseMB = plan.frozen[j]
		subInfos[j] = info
	}
	subSpec := &RoundSpec{
		Round:         spec.Round,
		Replicas:      subInfos,
		MaxLatencySec: spec.MaxLatencySec,
	}
	subRequests := make([]*RequestBody, len(dirty))
	for idx, i := range dirty {
		subRequests[idx] = requests[i]
		subSpec.ClientAddrs = append(subSpec.ClientAddrs, spec.ClientAddrs[i])
		subSpec.Demands = append(subSpec.Demands, spec.Demands[i])
		subSpec.LatencySec = append(subSpec.LatencySec, spec.LatencySec[i])
	}
	subProb, err := specProblem(subSpec)
	if err != nil {
		return 0, nil, false, errEscalateFull
	}
	// Cohort the subproblem like any round; the registry keeps cohort
	// identity stable across rounds even though the dirty subset varies.
	// Feasibility runs on the (possibly cohort-reduced) sub-instance, as
	// the full path checks its own solve problem: if the clean majority
	// pinned the cheap columns and the dirty demand no longer fits the
	// residual capacity, re-balance everything.
	_, solveProb, grouping := r.groupRound(subSpec, subProb)
	if err := opt.CheckFeasible(solveProb); err != nil {
		return 0, nil, false, errEscalateFull
	}

	// Warm start the dirty rows from their committed values (aligned by
	// address inside warmStart), renormalized over residual capacity.
	var x0 [][]float64
	if !r.cfg.ColdStart {
		if x0, _ = r.warmStart(subRequests, subInfos, subProb); grouping != nil && x0 != nil {
			x0 = r.foldWarm(grouping, x0)
		}
	}
	warmStarted = x0 != nil
	if x0 == nil {
		x0 = opt.NewMatrix(solveProb.C(), solveProb.N())
	}

	// Solve the reduced dirty sub-instance centrally with the
	// projected-gradient reference method instead of driving a distributed
	// sub-round: the initiator already holds every parameter of the
	// sub-instance (it built it), the instance is small — O(dirty) rows,
	// and a handful of cohorts once reduced — and a distributed solve
	// would pay per-iteration fan-out latency on a problem that no longer
	// needs distribution. The full-problem gate below vets the result
	// exactly as it would a distributed one. No round start is sent: the
	// final install creates the replicas' round state by itself.
	res, err := opt.ProjectedGradient(solveProb, x0, opt.PGDOptions{})
	if err != nil {
		return 0, nil, false, errEscalateFull
	}

	// Merge: dirty rows replace their scaffold zeros; clean rows are the
	// rescaled committed assignment.
	merged := plan.base
	rows := make([][]float64, len(dirty))
	for idx, i := range dirty {
		rows[idx] = merged[i]
	}
	if grouping != nil {
		if _, _, err := disaggregateInto(grouping, res.X, rows); err != nil {
			return 0, nil, false, errEscalateFull
		}
	} else {
		for idx, row := range rows {
			copy(row, res.X[idx])
		}
	}

	// Gate the merged full-problem result: exact feasibility (clean rows
	// conserve demand by the rescale, columns by frozen + residual ≤ B)
	// and a first-order stationarity spot-check. The stationarity bar is
	// relative to the committed assignment's own KKT gap — the quality a
	// full solve actually delivers at the configured tolerance — with an
	// absolute floor for committed rounds that happened to land near the
	// exact optimum. Either gate failing means the frozen-base
	// decomposition was a bad approximation this round: redo it as a full
	// solve rather than install a doubtful plan.
	scale := 1.0
	for _, d := range prob.Demands {
		scale = math.Max(scale, d)
	}
	for _, info := range spec.Replicas {
		scale = math.Max(scale, info.Bandwidth)
	}
	if viol := prob.Violation(merged); viol > 1e-6*scale {
		return 0, nil, false, errEscalateFull
	}
	gapLimit := math.Max(2*plan.baseGap, 0.10*math.Max(math.Abs(prob.Cost(merged)), 1))
	if gap := opt.KKTGap(prob, merged); gap > gapLimit {
		return 0, nil, false, errEscalateFull
	}
	return res.Iterations, grouping, warmStarted, nil
}

// dirtyDuals is the merged round's per-client dual seed: clean clients
// keep their committed μ; dirty clients get a fresh first-order estimate —
// the highest congestion price among the columns now serving them — so
// the next warm start sees current prices for everyone (the centralized
// sub-solve reports no duals of its own). Nil when the committed round
// carried no duals: a partial overlay would hand the next warm start
// zeros for every clean client.
func (r *ReplicaServer) dirtyDuals(spec *RoundSpec, prob *opt.Problem, plan *incrementalPlan) map[string]float64 {
	if plan.lg.mus == nil {
		return nil
	}
	merged := plan.base
	price := make([]float64, len(spec.Replicas))
	for j, load := range opt.ColSums(merged) {
		price[j] = prob.System.Replicas[j].MarginalCost(load)
	}
	mus := make(map[string]float64, len(spec.ClientAddrs))
	for addr, v := range plan.lg.mus {
		mus[addr] = v
	}
	for _, i := range plan.delta.DirtyClients {
		mu := 0.0
		for j, v := range merged[i] {
			if v > 1e-9*math.Max(1, prob.Demands[i]) && price[j] > mu {
				mu = price[j]
			}
		}
		mus[spec.ClientAddrs[i]] = mu
	}
	return mus
}
