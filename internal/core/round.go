package core

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"edr/internal/cohort"
	"edr/internal/engine"
	"edr/internal/opt"
	"edr/internal/telemetry"
	"edr/internal/transport"
)

// RoundReport summarizes a completed scheduling round. It is also the
// JSON document the admin plane embeds in /status.
type RoundReport struct {
	// Round is the initiator-local round id.
	Round int `json:"round"`
	// Algorithm names the method used.
	Algorithm string `json:"algorithm"`
	// Iterations is how many distributed iterations ran.
	Iterations int `json:"iterations"`
	// Restarts counts ring-failure restarts the round survived.
	Restarts int `json:"restarts"`
	// ReplicaAddrs and ClientAddrs give the final participants in
	// column/row order.
	ReplicaAddrs []string `json:"replica_addrs"`
	ClientAddrs  []string `json:"client_addrs"`
	// Assignment is the final load split (clients × replicas).
	Assignment [][]float64 `json:"assignment"`
	// Objective is the total energy cost of the assignment (0 when a
	// degraded round could not rebuild the cost model).
	Objective float64 `json:"objective"`
	// Degraded reports that coordination kept failing after RoundRetries
	// restarts and the round fell back to the last-known-good assignment
	// renormalized over the reachable replicas. Demand is still fully
	// assigned, but the split is stale rather than re-optimized.
	Degraded bool `json:"degraded"`
	// WarmStarted reports that the solvers were seeded from the previous
	// round's assignment renormalized over this round's roster instead of
	// the cold uniform start (see ReplicaConfig.ColdStart).
	WarmStarted bool `json:"warm_started,omitempty"`
	// Cohorts is the number of virtual clients the distributed loop
	// solved over when cohort aggregation was active (see
	// ReplicaConfig.CohortMinClients); 0 means the round ran at raw
	// client granularity. ClientAddrs and Assignment are always
	// per-client either way — disaggregation happens before install.
	Cohorts int `json:"cohorts,omitempty"`
	// CohortRatio is the grouping's compression ratio |C|/|K|
	// (0 when ungrouped).
	CohortRatio float64 `json:"cohort_ratio,omitempty"`
	// Incremental reports that the round re-solved only the dirty subset
	// of clients against residual capacity (see ReplicaConfig.Incremental),
	// with every clean client keeping its committed row. A round with
	// DirtyClients == 0 committed the previous assignment outright.
	Incremental bool `json:"incremental,omitempty"`
	// DirtyClients is how many clients the incremental diff re-solved
	// (len(ClientAddrs) on full rounds with Incremental unset).
	DirtyClients int `json:"dirty_clients,omitempty"`
	// SuppressedNotifies counts clients not re-notified because their
	// allocation row moved at most DeltaEps of their demand.
	SuppressedNotifies int `json:"suppressed_notifies,omitempty"`
	// Duration is the wall time of the whole round, restarts included.
	Duration time.Duration `json:"duration_ns"`
	// Residuals and Costs are the per-iteration convergence residual and
	// energy-cost trajectories. They are recorded only when the replica's
	// telemetry bus has subscribers (ReplicaConfig.Telemetry), so the
	// round hot path does no extra work in an unobserved fleet. Residual
	// semantics are algorithm-specific: max relative demand residual for
	// LDDM, max absolute primal residual for ADMM, max estimate movement
	// for CDPSM. Costs is empty for CDPSM (the initiator holds no primal
	// iterate between consensus steps).
	Residuals []float64 `json:"residuals,omitempty"`
	Costs     []float64 `json:"costs,omitempty"`
}

// roundTrace accumulates per-iteration trajectories during the
// distributed loop; inert when observe is false.
type roundTrace struct {
	observe   bool
	residuals []float64
	costs     []float64
}

// add records one iteration's residual and cost (NaN cost = not
// available this algorithm/iteration).
func (tr *roundTrace) add(residual, cost float64) {
	if !tr.observe {
		return
	}
	tr.residuals = append(tr.residuals, residual)
	if !math.IsNaN(cost) {
		tr.costs = append(tr.costs, cost)
	}
}

// failedMemberError marks a coordination failure attributable to one
// replica; the round restarts without it.
type failedMemberError struct {
	addr string
	err  error
}

func (e *failedMemberError) Error() string {
	return fmt.Sprintf("core: member %s failed: %v", e.addr, e.err)
}

func (e *failedMemberError) Unwrap() error { return e.err }

// sendMsg performs one coordination RPC attempt of a prebuilt message
// with the configured timeout.
func (r *ReplicaServer) sendMsg(ctx context.Context, to string, req transport.Message) (transport.Message, error) {
	cctx, cancel := context.WithTimeout(ctx, r.cfg.RPCTimeout)
	defer cancel()
	resp, err := r.node.Send(cctx, to, req)
	r.Stats.CoordMessages.Inc(1)
	return resp, err
}

// sendRetry performs a coordination RPC, retrying transient failures up to
// SendRetries times with exponential backoff and jitter. The body is
// marshaled once; retries resend the identical bytes.
func (r *ReplicaServer) sendRetry(ctx context.Context, to, msgType string, body any) (transport.Message, error) {
	req, err := transport.NewMessage(msgType, r.Addr(), body)
	if err != nil {
		return transport.Message{}, err
	}
	return r.sendMsgRetry(ctx, to, req)
}

// sendMsgRetry is the retry loop over a prebuilt message. Retrying is safe
// because a failed attempt was never delivered (both fabrics fail sends
// before the destination handler runs), so a lost packet or a latency
// spike costs a retry, not a member's life. Retries stop as soon as the
// surrounding context ends — a cancelled fan-out wave must not keep
// hammering a peer.
func (r *ReplicaServer) sendMsgRetry(ctx context.Context, to string, req transport.Message) (transport.Message, error) {
	var lastErr error
	for attempt := 0; attempt <= r.cfg.SendRetries; attempt++ {
		if attempt > 0 {
			if err := sleepBackoff(ctx, r.cfg.RetryBase, attempt); err != nil {
				break
			}
			r.Stats.SendRetried.Inc(1)
			r.cfg.Telemetry.Publish(telemetry.RPCRetried{Peer: to, Verb: req.Type, Attempt: attempt})
		}
		resp, err := r.sendMsg(ctx, to, req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break // the wave was cancelled, not the peer failing
		}
	}
	return transport.Message{}, lastErr
}

// sleepBackoff waits RetryBase·2^(attempt−1) with ±50% jitter, honoring
// ctx cancellation. Jitter decorrelates the fleet's retry storms.
func sleepBackoff(ctx context.Context, base time.Duration, attempt int) error {
	d := base << (attempt - 1)
	if max := 5 * time.Second; d > max {
		d = max
	}
	d = d/2 + time.Duration(rand.Int64N(int64(d)))
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// sendReplica is sendRetry with member-failure attribution: only after the
// retry budget is exhausted is the failure pinned on the destination.
func (r *ReplicaServer) sendReplica(ctx context.Context, to, msgType string, body any) (transport.Message, error) {
	resp, err := r.sendRetry(ctx, to, msgType, body)
	if err != nil {
		if ctx.Err() != nil {
			// The round's own budget ran out (or its wave was cancelled)
			// mid-send. That is the initiator's failure, not the peer's:
			// attributing it would declare live members dead whenever a
			// slow round hits its deadline.
			return transport.Message{}, err
		}
		return transport.Message{}, &failedMemberError{addr: to, err: err}
	}
	return resp, nil
}

// msgReply adapts a transport.Message to the engine's Reply.
type msgReply struct{ m transport.Message }

func (mr msgReply) Decode(into any) error { return mr.m.DecodeBody(into) }

// roundTransport adapts the replica's retry/attribution stack to the
// engine's Transport: replica sends carry member-failure attribution so
// RunRound can prune the peer and restart; client sends retry without it
// (clients are not ring members).
type roundTransport struct{ r *ReplicaServer }

func (t roundTransport) Replica(ctx context.Context, addr, verb string, body any) (engine.Reply, error) {
	resp, err := t.r.sendReplica(ctx, addr, verb, body)
	if err != nil {
		return nil, err
	}
	return msgReply{resp}, nil
}

func (t roundTransport) Client(ctx context.Context, addr, verb string, body any) (engine.Reply, error) {
	resp, err := t.r.sendRetry(ctx, addr, verb, body)
	if err != nil {
		return nil, err
	}
	return msgReply{resp}, nil
}

// RunRound schedules all pending requests: it drains the queue, runs the
// configured distributed algorithm across the current ring, installs the
// assignment on the replicas, and notifies the clients. When a ring member
// fails mid-round — meaning every RPC retry to it was exhausted — the
// member is declared dead (pruned and broadcast, §III-C) and the round
// restarts on the survivors, up to RoundRetries times. When the retry
// budget itself is exhausted the round degrades instead of failing: the
// last-known-good assignment is renormalized over the reachable replicas
// and reported with Degraded set, so the fleet keeps serving through an
// outage the optimizer cannot coordinate across.
func (r *ReplicaServer) RunRound(ctx context.Context) (*RoundReport, error) {
	// Drain the pending queue into this round.
	r.mu.Lock()
	if len(r.pending) == 0 {
		r.mu.Unlock()
		return nil, fmt.Errorf("core: replica %s: no pending requests", r.Addr())
	}
	requests := make([]*RequestBody, 0, len(r.pending))
	for _, req := range r.pending {
		requests = append(requests, req)
	}
	r.pending = make(map[string]*RequestBody)
	r.mu.Unlock()
	// Deterministic row order (the pending map iterates randomly): a
	// stable roster then yields identical row order round over round,
	// which is what lets the incremental diff run with identity row maps
	// and the cohort registry hit its cross-round cache.
	sort.Slice(requests, func(i, j int) bool { return requests[i].ClientAddr < requests[j].ClientAddr })
	r.Stats.RoundsInitiated.Inc(1)
	start := time.Now()

	var lastErr error
	restarts := 0
	for attempt := 0; attempt <= r.cfg.RoundRetries; attempt++ {
		report, err := r.runRoundOnce(ctx, requests, restarts)
		if err == nil {
			r.finishRound(report, start)
			return report, nil
		}
		lastErr = err
		var fail *failedMemberError
		if attempt < r.cfg.RoundRetries && asFailedMember(err, &fail) && r.ring.Contains(fail.addr) && fail.addr != r.Addr() {
			// Prune the dead member, tell the survivors, retry.
			r.mon.DeclareDead(fail.addr)
			r.Stats.RoundsRestarted.Inc(1)
			restarts++
			continue
		}
		break
	}

	// Graceful degradation: a coordination failure with no retries left
	// falls back to the last-known-good split rather than erroring the
	// round. The failed member is excluded from the fallback but NOT
	// declared dead — if its failure was transient (a partition, a loss
	// burst) it rejoins the next round untouched. Non-coordination errors
	// (infeasible demand, bad specs) still surface: stale assignments
	// cannot fix a problem that was never solvable.
	var fail *failedMemberError
	if asFailedMember(lastErr, &fail) && ctx.Err() == nil {
		if report, ok := r.degradedRound(ctx, requests, restarts, fail.addr); ok {
			r.finishRound(report, start)
			r.cfg.Telemetry.Publish(telemetry.RoundDegraded{
				Round:        report.Round,
				FailedMember: fail.addr,
				Restarts:     restarts,
			})
			return report, nil
		}
	}
	// The round failed outright. Put the drained requests back so the next
	// round (the daemon's next tick) retries them; a client that
	// resubmitted in the meantime keeps its newer demand.
	r.mu.Lock()
	for _, req := range requests {
		if _, ok := r.pending[req.ClientAddr]; !ok {
			r.pending[req.ClientAddr] = req
		}
	}
	r.mu.Unlock()
	if lastErr != nil {
		r.cfg.Telemetry.Publish(telemetry.RoundFailed{Err: lastErr.Error()})
	}
	return nil, lastErr
}

// finishRound stamps the report's duration, remembers it for the admin
// plane, and publishes the RoundCompleted event.
func (r *ReplicaServer) finishRound(report *RoundReport, start time.Time) {
	report.Duration = time.Since(start)
	r.mu.Lock()
	r.lastReport = report
	r.mu.Unlock()
	r.cfg.Telemetry.Publish(telemetry.RoundCompleted{
		Round:              report.Round,
		Algorithm:          report.Algorithm,
		Iterations:         report.Iterations,
		Restarts:           report.Restarts,
		Clients:            len(report.ClientAddrs),
		Replicas:           len(report.ReplicaAddrs),
		Objective:          report.Objective,
		Duration:           report.Duration,
		Degraded:           report.Degraded,
		Cohorts:            report.Cohorts,
		CohortRatio:        report.CohortRatio,
		Incremental:        report.Incremental,
		DirtyClients:       report.DirtyClients,
		SuppressedNotifies: report.SuppressedNotifies,
		Residuals:          report.Residuals,
		Costs:              report.Costs,
	})
}

// degradedRound builds a best-effort round from the last successful one:
// the stale assignment restricted to reachable replicas, renormalized per
// client so every demand is fully assigned. Returns false when there is no
// usable history (no prior success, or no surviving replica columns).
func (r *ReplicaServer) degradedRound(ctx context.Context, requests []*RequestBody, restarts int, failedAddr string) (*RoundReport, bool) {
	r.mu.Lock()
	lg := r.lastGood
	r.mu.Unlock()
	if lg == nil {
		return nil, false
	}
	// Surviving columns: active (non-drained) ring members minus the
	// member the failure was attributed to (unreachable right now, though
	// possibly still alive).
	var cols []int
	var infos []ReplicaInfo
	for j, info := range lg.infos {
		if info.Addr != failedAddr && r.ring.Contains(info.Addr) && !r.member.IsDrained(info.Addr) {
			cols = append(cols, j)
			infos = append(infos, info)
		}
	}
	if len(cols) == 0 {
		return nil, false
	}
	rowOf := make(map[string]int, len(lg.clientAddrs))
	for i, addr := range lg.clientAddrs {
		rowOf[addr] = i
	}
	spec := r.buildSpec(r.nextRound(), requests, infos)

	// Renormalize per client (shared warm-start kernel): keep the
	// last-good proportions across the surviving replicas; clients with
	// no history (or whose entire last split landed on lost replicas)
	// spread uniformly over their latency-feasible columns, and cap
	// excess is redistributed onto replicas with headroom.
	weights := opt.NewMatrix(len(requests), len(cols))
	caps := make([]float64, len(cols))
	for jj := range cols {
		caps[jj] = infos[jj].Bandwidth
	}
	allowed := make([][]bool, len(requests))
	for i, req := range requests {
		allowed[i] = make([]bool, len(cols))
		for jj := range cols {
			allowed[i][jj] = spec.LatencySec[i][jj] <= r.cfg.MaxLatencySec
		}
		if row, ok := rowOf[req.ClientAddr]; ok {
			for jj, j := range cols {
				weights[i][jj] = lg.assignment[row][j]
			}
		}
	}
	assignment := opt.Renormalize(weights, spec.Demands, caps, allowed)

	// Install the plan and notify the clients best-effort: a replica we
	// cannot reach keeps its previous plan, which is exactly the fallback
	// we are re-publishing.
	_ = r.installPlan(ctx, infos, denseInstall(spec.Round, spec.ClientAddrs, assignment), true)
	r.notifyMoved(ctx, spec.Round, spec.ClientAddrs, infos, assignment, nil, nil, 0)

	// The objective is recomputed from the cached energy models when
	// possible; a failure here degrades the report, not the round.
	objective := 0.0
	if prob, err := specProblem(&spec); err == nil {
		objective = prob.Cost(assignment)
	}

	r.Stats.RoundsDegraded.Inc(1)
	return &RoundReport{
		Round:        spec.Round,
		Algorithm:    r.cfg.Algorithm.String(),
		Restarts:     restarts,
		ReplicaAddrs: replicaAddrs(infos),
		ClientAddrs:  spec.ClientAddrs,
		Assignment:   assignment,
		Objective:    objective,
		Degraded:     true,
	}, true
}

// ServeRounds runs scheduling rounds on a timer until ctx ends: every
// interval, pending requests (if any) are scheduled with RunRound. Round
// outcomes are delivered to onRound (which may be nil); errors to onError
// (which may be nil). This is the loop cmd/edrd runs; it lives here so
// deployments embedding the library get the same behavior.
func (r *ReplicaServer) ServeRounds(ctx context.Context, interval time.Duration, onRound func(*RoundReport), onError func(error)) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			if r.PendingRequests() == 0 {
				continue
			}
			rctx, cancel := context.WithTimeout(ctx, 10*interval)
			report, err := r.RunRound(rctx)
			cancel()
			if err != nil {
				if onError != nil {
					onError(err)
				}
				continue
			}
			if onRound != nil {
				onRound(report)
			}
		}
	}
}

// asFailedMember unwraps err into *failedMemberError.
func asFailedMember(err error, target **failedMemberError) bool {
	for err != nil {
		if fe, ok := err.(*failedMemberError); ok {
			*target = fe
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// runRoundOnce executes one attempt over the current ring membership. The
// first try may take the incremental path (dirty-subset solve against the
// committed assignment); when the incremental gate rejects its result, the
// attempt re-runs immediately as a full solve — escalation is a retry of
// this attempt, not a round restart.
func (r *ReplicaServer) runRoundOnce(ctx context.Context, requests []*RequestBody, restarts int) (*RoundReport, error) {
	report, err := r.runRoundAttempt(ctx, requests, restarts, true)
	if err == errEscalateFull {
		r.Stats.RoundsEscalated.Inc(1)
		report, err = r.runRoundAttempt(ctx, requests, restarts, false)
	}
	return report, err
}

// runRoundAttempt executes one attempt over the current ring membership,
// excluding drained members (they keep heartbeating and serving installed
// plans, but take no new load — the membership layer's drain semantics).
func (r *ReplicaServer) runRoundAttempt(ctx context.Context, requests []*RequestBody, restarts int, allowIncremental bool) (*RoundReport, error) {
	members := r.activeMembers()
	if len(members) == 0 {
		return nil, fmt.Errorf("core: replica %s: no active ring members", r.Addr())
	}

	// 1. Gather every member's model parameters (parallel fan-out).
	infos := make([]ReplicaInfo, len(members))
	if err := engine.FanOut(ctx, len(members), func(ctx context.Context, i int) error {
		resp, err := r.sendReplica(ctx, members[i], MsgReplicaInfo, nil)
		if err != nil {
			return err
		}
		return resp.DecodeBody(&infos[i])
	}); err != nil {
		return nil, err
	}
	// Deterministic column order, mirroring the request-row sort: byte
	// keys in the cohort registry and row/column maps in the incremental
	// diff stay aligned across rounds of a stable roster.
	sort.Slice(infos, func(i, j int) bool { return infos[i].Addr < infos[j].Addr })

	// 2. Build the round spec and its problem.
	spec := r.buildSpec(r.nextRound(), requests, infos)
	prob, err := specProblem(&spec)
	if err != nil {
		return nil, err
	}

	// Incremental re-optimization: when the committed round covers this
	// one's roster, diff against it and solve only the dirty subset (or
	// commit outright when nothing drifted). Gate failures surface as
	// errEscalateFull, which runRoundOnce answers by re-running this
	// attempt with allowIncremental false.
	if r.cfg.Incremental && allowIncremental {
		if plan := r.planIncremental(requests, infos, prob); plan != nil {
			return r.runIncremental(ctx, requests, &spec, prob, plan, restarts)
		}
	}

	solveSpec, solveProb, grouping := r.groupRound(&spec, prob)
	if err := opt.CheckFeasible(solveProb); err != nil {
		return nil, err
	}

	// Warm start: when a last-known-good assignment exists, renormalize it
	// over this round's roster and ship it with the spec so every solver
	// seeds from a demand-conserving point near the previous optimum. This
	// is what makes epoch changes cheap — the round after a join or drain
	// re-converges from the old split instead of from the uniform start.
	// Cohorted rounds fold the per-client history into cohort rows (and
	// per-client duals into demand-weighted cohort duals) first; the
	// pooled buffers are done being read before Run releases them (the
	// spec is marshaled at step 3; rd.Warm is consumed in Init).
	var warmMu []float64
	if !r.cfg.ColdStart {
		warm, mu := r.warmStart(requests, infos, prob)
		if grouping != nil && warm != nil {
			warm = r.foldWarm(grouping, warm)
			if mu != nil {
				mu = grouping.AggregateDualsInto(mu, r.pool.Vector(grouping.K()))
			}
		}
		solveSpec.Warm, warmMu = warm, mu
	}

	// 3. Install the round on every replica (the reduced spec when
	// cohorting is active — participants never see raw client rows).
	if err := engine.FanOut(ctx, len(infos), func(ctx context.Context, i int) error {
		_, err := r.sendReplica(ctx, infos[i].Addr, MsgRoundStart, solveSpec)
		return err
	}); err != nil {
		return nil, err
	}

	// 4. Run the distributed iterations through the solver engine: the
	// registered algorithm supplies the per-iteration exchanges and the
	// convergence test, the shared driver owns fan-out, cancellation, and
	// iteration accounting. Trajectories are recorded only when someone is
	// listening on the telemetry bus — the extra per-iteration objective
	// evaluations stay off the unobserved path.
	reg, ok := engine.Lookup(string(r.cfg.Algorithm))
	if !ok {
		return nil, fmt.Errorf("core: unknown algorithm %q", r.cfg.Algorithm)
	}
	trace := roundTrace{observe: r.cfg.Telemetry.Active()}
	driver := &engine.Driver{
		Transport: roundTransport{r},
		Observe:   trace.observe,
		OnIterate: func(_ int, residual, cost float64) { trace.add(residual, cost) },
	}
	rd := &engine.Round{
		Seq:          spec.Round,
		Prob:         solveProb,
		ReplicaAddrs: replicaAddrs(infos),
		ClientAddrs:  solveSpec.ClientAddrs,
		MaxIters:     r.cfg.MaxIters,
		Tol:          r.cfg.Tol,
		Warm:         solveSpec.Warm,
		WarmMu:       warmMu,
		Pool:         r.pool,
		Par:          r.par,
	}
	alg := reg.New()
	assignment, iterations, err := driver.Run(ctx, alg, rd)
	if err != nil {
		return nil, err
	}

	// 5. Install the final plan on the replicas, notify the clients, and
	// commit. Cohorted rounds stay packed between the engine and the
	// install fan-out: each replica's column is read straight from the
	// packed per-client vector through the CSC view, and each cohort's
	// members share one allocation message. The only dense |C|×|N| matrix
	// built is the one the report (and the warm-start history) needs.
	if grouping != nil {
		full := opt.NewMatrix(prob.C(), prob.N()) // escapes into the report
		vk, xPk, err := disaggregateInto(grouping, assignment, full)
		if err != nil {
			return nil, err
		}
		fullSp, _ := grouping.Sparse()
		if err := r.installPlan(ctx, infos, packedInstall(spec.Round, spec.ClientAddrs, fullSp, xPk), false); err != nil {
			return nil, err
		}
		r.notifyCohorts(ctx, spec.Round, spec.ClientAddrs, grouping, infos, vk, iterations)
		assignment = full
	} else {
		if err := r.installPlan(ctx, infos, denseInstall(spec.Round, spec.ClientAddrs, assignment), false); err != nil {
			return nil, err
		}
		r.notifyMoved(ctx, spec.Round, spec.ClientAddrs, infos, assignment, nil, nil, iterations)
	}

	// Keep the round's duals (when the algorithm reports them) for the
	// next warm start. μ is a per-unit congestion price: every member of a
	// cohort inherits its cohort's dual, so the next round's warm duals
	// cover the full client set.
	var mus map[string]float64
	if dr, ok := alg.(engine.DualReporter); ok {
		if duals := dr.Duals(); len(duals) == len(solveSpec.ClientAddrs) {
			mus = make(map[string]float64, len(spec.ClientAddrs))
			for i, addr := range spec.ClientAddrs {
				k := i
				if grouping != nil {
					k = grouping.CohortOf(i)
				}
				mus[addr] = duals[k]
			}
		}
	}
	report := r.commitRound(&lastGoodRound{
		round:          spec.Round,
		infos:          infos,
		clientAddrs:    spec.ClientAddrs,
		assignment:     assignment,
		mus:            mus,
		prob:           prob,
		objective:      prob.Cost(assignment),
		installed:      assignment,
		installedRound: spec.Round,
	}, restarts, iterations, grouping)
	report.WarmStarted = solveSpec.Warm != nil
	report.Residuals, report.Costs = trace.residuals, trace.costs
	return report, nil
}

// nextRound allocates the next initiator-local round id.
func (r *ReplicaServer) nextRound() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.roundSeq++
	return r.roundSeq
}

// buildSpec builds a round's per-client spec: rows in request order,
// columns in infos order. Latencies a client did not measure are treated
// as beyond the bound (the replica is not a candidate for that client).
func (r *ReplicaServer) buildSpec(round int, requests []*RequestBody, infos []ReplicaInfo) RoundSpec {
	spec := RoundSpec{
		Round:         round,
		Replicas:      infos,
		MaxLatencySec: r.cfg.MaxLatencySec,
		ClientAddrs:   make([]string, len(requests)),
		Demands:       make([]float64, len(requests)),
		LatencySec:    make([][]float64, len(requests)),
	}
	for i, req := range requests {
		spec.ClientAddrs[i] = req.ClientAddr
		spec.Demands[i] = req.DemandMB
		row := make([]float64, len(infos))
		for j, info := range infos {
			if l, ok := req.LatencySec[info.Addr]; ok {
				row[j] = l
			} else {
				row[j] = 10 * r.cfg.MaxLatencySec // unmeasured → infeasible
			}
		}
		spec.LatencySec[i] = row
	}
	return spec
}

// groupRound applies cohort aggregation to a round's instance: at client
// scale, clients sharing a feasibility mask and latency class merge into
// virtual clients and the round solves the reduced instance. The objective
// depends on an assignment only through per-replica column sums, so the
// reduced optimum matches the ungrouped one and disaggregation loses
// nothing (see internal/cohort). Grouping goes through the cross-round
// registry: quiet rounds over a stable roster reuse the cached partition
// and primed sparsity outright, and surviving cohorts keep their relative
// order either way. The instance comes back unchanged, with a nil
// grouping, below the CohortMinClients threshold or when grouping would
// not compress.
func (r *ReplicaServer) groupRound(spec *RoundSpec, prob *opt.Problem) (*RoundSpec, *opt.Problem, *cohort.Grouping) {
	if min := r.cfg.CohortMinClients; min <= 0 || prob.C() < min {
		return spec, prob, nil
	}
	g, _, err := r.registry.Group(prob, cohort.Options{
		Quantum:    r.cfg.CohortQuantumSec,
		MaxCohorts: r.cfg.CohortMax,
	})
	if err != nil || g.K() >= prob.C() {
		return spec, prob, nil
	}
	reduced := g.Reduced()
	rspec := &RoundSpec{
		Round:         spec.Round,
		Replicas:      spec.Replicas,
		ClientAddrs:   make([]string, g.K()),
		MaxLatencySec: spec.MaxLatencySec,
		RawClients:    prob.C(),
		Demands:       reduced.Demands,
		LatencySec:    reduced.Latency,
	}
	// Each cohort's exchanges (LDDM μ updates) route to one representative
	// member; cohorts are disjoint, so representatives are distinct and the
	// client-side accumulators never collide.
	for k := range rspec.ClientAddrs {
		rspec.ClientAddrs[k] = spec.ClientAddrs[g.Members(k)[0]]
	}
	return rspec, reduced, g
}

// foldWarm folds a per-client warm start into cohort rows: the history is
// gathered straight into the cohorts' CSR slots and scattered once into a
// pooled |K|×|N| matrix, with no dense |C|×|N| intermediate.
func (r *ReplicaServer) foldWarm(g *cohort.Grouping, warm [][]float64) [][]float64 {
	_, redSp := g.Sparse()
	pk := g.AggregateRowsPacked(warm, r.pool.Vector(redSp.NNZ()))
	out := r.pool.Matrix(g.K(), redSp.N)
	redSp.Scatter(out, pk)
	return out
}

// disaggregateInto maps a cohort-level assignment back to per-client rows
// of dst: gathered into the cohorts' CSR slots, split slot-to-slot, and
// scattered into dst. It returns the packed cohort-level (vk) and
// per-client (xPk) vectors for the install and notify fan-outs.
func disaggregateInto(g *cohort.Grouping, xk, dst [][]float64) (vk, xPk []float64, err error) {
	fullSp, redSp := g.Sparse()
	vk = redSp.Gather(nil, xk)
	xPk, err = g.DisaggregatePacked(vk, nil)
	if err != nil {
		return nil, nil, err
	}
	fullSp.Scatter(dst, xPk)
	return vk, xPk, nil
}

// An installSource yields replica j's install body for a round.
type installSource func(j int) AssignBody

// denseInstall installs full columns read from a dense per-client matrix.
func denseInstall(round int, clientAddrs []string, x [][]float64) installSource {
	return func(j int) AssignBody {
		col := make([]float64, len(clientAddrs))
		for i := range clientAddrs {
			col[i] = x[i][j]
		}
		return AssignBody{Round: round, Column: col, ClientAddrs: clientAddrs}
	}
}

// packedInstall installs full columns read from a packed per-client vector
// (CSR order) through its sparsity's CSC view.
func packedInstall(round int, clientAddrs []string, sp *opt.Sparsity, xPk []float64) installSource {
	return func(j int) AssignBody {
		col := make([]float64, len(clientAddrs))
		for s := sp.ColStart[j]; s < sp.ColStart[j+1]; s++ {
			col[sp.RowIdx[s]] = xPk[sp.PosCSR[s]]
		}
		return AssignBody{Round: round, Column: col, ClientAddrs: clientAddrs}
	}
}

// deltaInstall installs, against the plan installed under round base, only
// the entries of x that differ from prev (the base plan's rows in this
// round's order; a nil row is a client the base never held), and removes
// the departed clients.
func deltaInstall(round, base int, clientAddrs []string, x, prev [][]float64, departed []string) installSource {
	return func(j int) AssignBody {
		updates := make(map[string]float64)
		for i, addr := range clientAddrs {
			if p := prev[i]; p == nil || x[i][j] != p[j] {
				updates[addr] = x[i][j]
			}
		}
		for _, addr := range departed {
			updates[addr] = 0
		}
		return AssignBody{Round: round, BaseRound: base, Updates: updates}
	}
}

// installPlan fans a round's final plan out to every replica. Installs
// create the replicas' round state, so no round start has to precede
// them. A failed install fails the round with member attribution; a
// best-effort install (degraded rounds) ignores failures instead — an
// unreachable replica keeps its previous plan.
func (r *ReplicaServer) installPlan(ctx context.Context, infos []ReplicaInfo, src installSource, bestEffort bool) error {
	return engine.FanOut(ctx, len(infos), func(ctx context.Context, j int) error {
		_, err := r.sendReplica(ctx, infos[j].Addr, MsgAssign, src(j))
		if bestEffort {
			return nil
		}
		return err
	})
}

// commitRound makes lg the last-known-good round — the degraded fallback,
// the next warm start's seed and the incremental diff's base — caches its
// participants' model parameters for the autoscaler's pricing signal, and
// builds the round's report. g is the round's cohort grouping (nil when
// the round solved at client granularity).
func (r *ReplicaServer) commitRound(lg *lastGoodRound, restarts, iterations int, g *cohort.Grouping) *RoundReport {
	r.mu.Lock()
	r.lastGood = lg
	for _, info := range lg.infos {
		r.infoCache[info.Addr] = info
	}
	r.mu.Unlock()
	report := &RoundReport{
		Round:        lg.round,
		Algorithm:    r.cfg.Algorithm.String(),
		Iterations:   iterations,
		Restarts:     restarts,
		ReplicaAddrs: replicaAddrs(lg.infos),
		ClientAddrs:  lg.clientAddrs,
		Assignment:   lg.assignment,
		Objective:    lg.objective,
	}
	if g != nil {
		report.Cohorts = g.K()
		report.CohortRatio = g.Ratio()
	}
	return report
}

// warmStart builds the round's warm-start matrix (and, when the previous
// round reported duals, the per-client dual seed) from the last-known-good
// assignment: old columns are aligned to the new roster by replica address
// and old rows to the new request set by client address, then the whole
// matrix is renormalized so every row conserves its demand within this
// round's capacity and latency constraints. Returns nils when there is no
// history to warm from.
func (r *ReplicaServer) warmStart(requests []*RequestBody, infos []ReplicaInfo, prob *opt.Problem) ([][]float64, []float64) {
	r.mu.Lock()
	lg := r.lastGood
	r.mu.Unlock()
	if lg == nil {
		return nil, nil
	}
	colOf := make(map[string]int, len(lg.infos))
	for j, info := range lg.infos {
		colOf[info.Addr] = j
	}
	rowOf := make(map[string]int, len(lg.clientAddrs))
	for i, addr := range lg.clientAddrs {
		rowOf[addr] = i
	}
	// Pooled scratch: Renormalize allocates its own output, so weights is
	// dead once it returns (the pool recycles it after the round's solve).
	weights := r.pool.Matrix(len(requests), len(infos))
	var newCols []int
	for j, info := range infos {
		if _, ok := colOf[info.Addr]; !ok {
			newCols = append(newCols, j)
		}
	}
	for i, req := range requests {
		row, ok := rowOf[req.ClientAddr]
		if !ok {
			continue // new client: Renormalize spreads it uniformly
		}
		total, kept := 0.0, 0.0
		for _, v := range lg.assignment[row] {
			total += v
		}
		for j, info := range infos {
			if oj, ok := colOf[info.Addr]; ok {
				weights[i][j] = lg.assignment[row][oj]
				kept += weights[i][j]
			}
		}
		// Mass that lived on departed columns seeds the joined ones: on a
		// swap (drain one member, join another) the new optimum tends to
		// hand the newcomer roughly the departed member's share, so
		// inheriting it lands the seed much closer than spreading the
		// loss over the incumbents.
		if lost := total - kept; lost > 0 && len(newCols) > 0 {
			for _, j := range newCols {
				weights[i][j] = lost / float64(len(newCols))
			}
		}
	}
	caps := make([]float64, len(infos))
	for j, info := range infos {
		caps[j] = info.Bandwidth
	}
	var warmMu []float64
	if lg.mus != nil {
		warmMu = make([]float64, len(requests))
		for i, req := range requests {
			warmMu[i] = lg.mus[req.ClientAddr] // zero for new clients
		}
	}
	return opt.Renormalize(weights, prob.Demands, caps, prob.Allowed()), warmMu
}

// notifyMoved delivers clients their allocation rows. With prev nil every
// client is notified; otherwise the fan-out is change-suppressed: a client
// is notified only when some entry of its row moved beyond DeltaEps of its
// demand against prev[i], what it was last told (clients with a nil prev
// row are always notified). Returns the number of suppressed clients.
// Client failures never abort a round: the other allocations stand.
func (r *ReplicaServer) notifyMoved(ctx context.Context, round int, clientAddrs []string, infos []ReplicaInfo, x [][]float64, prev [][]float64, demands []float64, iterations int) int {
	moved := make([]int, 0, len(clientAddrs))
	for i := range clientAddrs {
		if prev == nil || prev[i] == nil {
			moved = append(moved, i)
			continue
		}
		tol := r.cfg.DeltaEps * math.Max(demands[i], 1e-12)
		for j, v := range x[i] {
			if math.Abs(v-prev[i][j]) > tol {
				moved = append(moved, i)
				break
			}
		}
	}
	_ = engine.FanOut(ctx, len(moved), func(ctx context.Context, t int) error {
		i := moved[t]
		per := make(map[string]float64, len(infos))
		for j, info := range infos {
			if x[i][j] > 0 {
				per[info.Addr] = x[i][j]
			}
		}
		body := AllocationBody{
			Round:        round,
			PerReplicaMB: per,
			Algorithm:    r.cfg.Algorithm.String(),
			Iterations:   iterations,
		}
		_, _ = r.sendRetry(ctx, clientAddrs[i], MsgAllocation, body)
		return nil
	})
	return len(clientAddrs) - len(moved)
}

// notifyCohorts is the cohorted-round allocation fan-out: every member of a
// cohort receives the same prebuilt message — the cohort's per-unit split
// over its feasible replicas — and reconstructs its own per-replica map
// locally by scaling with its own submitted demand. The body is built and
// marshaled once per cohort instead of once per client, which is what makes
// the notify phase scale with |K| work + |C| sends rather than |C| marshals
// of |N|-entry maps. Failures never abort the round.
func (r *ReplicaServer) notifyCohorts(ctx context.Context, round int, clientAddrs []string, g *cohort.Grouping, infos []ReplicaInfo, vk []float64, iterations int) {
	_, redSp := g.Sparse()
	msgs := make([]transport.Message, g.K())
	for k := 0; k < g.K(); k++ {
		kb, ke := redSp.RowStart[k], redSp.RowStart[k+1]
		w := ke - kb
		unit := make([]float64, w)
		addrs := make([]string, w)
		sum := 0.0
		for t := 0; t < w; t++ {
			v := vk[kb+t]
			if v < 0 {
				v = 0
			}
			unit[t] = v
			addrs[t] = infos[redSp.ColIdx[kb+t]].Addr
			sum += v
		}
		if sum > 0 {
			for t := range unit {
				unit[t] /= sum
			}
		} else if w > 0 {
			for t := range unit {
				unit[t] = 1 / float64(w)
			}
		}
		msg, err := transport.NewMessage(MsgCohortAllocation, r.Addr(), CohortAllocationBody{
			Round:      round,
			Algorithm:  r.cfg.Algorithm.String(),
			Iterations: iterations,
			Replicas:   addrs,
			UnitMB:     unit,
		})
		if err != nil {
			continue // msgs[k].Type stays empty: the cohort goes unnotified
		}
		msgs[k] = msg
	}
	_ = engine.FanOut(ctx, len(clientAddrs), func(ctx context.Context, i int) error {
		if msg := msgs[g.CohortOf(i)]; msg.Type != "" {
			_, _ = r.sendMsgRetry(ctx, clientAddrs[i], msg)
		}
		return nil
	})
}
