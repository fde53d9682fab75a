package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
	"unsafe"

	"edr/internal/central"
	"edr/internal/cohort"
	"edr/internal/core"
	"edr/internal/opt"
	"edr/internal/transport"
)

// bytesPerMB is the fleet's download scale (core's default): downloads
// carry 1 KiB of synthetic payload per allocated MB.
const bytesPerMB = 1024

// heapRound is the loop round after which heap_mb is sampled (or the
// loop's end, when it runs fewer). A fixed round, not the loop's end: the
// fleet retains heap every round, and a faster fleet completes more
// rounds in the same seconds — sampling at the end would charge a
// speed-up with a bigger heap.
const heapRound = 10

// setupRuns is how many times a run brings the fleet up and runs its
// cold round; setup_s is their median and the last fleet runs the loop.
const setupRuns = 3

// pullPoll is how often a one-shot client re-pulls its committed row.
const pullPoll = time.Millisecond

// Options configure one benchmark run.
type Options struct {
	Workload Workload
	Seed     uint64
	// Seconds bounds the measured loop; Rounds > 0 instead runs exactly
	// that many measured rounds (the tests use it so counts can repeat).
	Seconds float64
	Rounds  int
	// Setups overrides setupRuns when > 0 (the tests bring the fleet up
	// once).
	Setups int
	// Trace records spans and derives the per-layer metrics.
	Trace bool
	// SpanFile, when set with Trace, receives the spans as CSV.
	SpanFile string
}

// roundRec is what one closed-loop round measured. It keeps scalars and
// per-client timings only, not the round's report: the loop holds every
// round's record, and a report's assignment matrix would be counted as
// the fleet's heap.
type roundRec struct {
	facts     *roundFacts   // nil when RunRound failed
	roundDur  time.Duration // RunRound alone
	timed     time.Duration // submits through downloads
	alloc     []float64     // ms, batch close → allocation in hand, per client that needed one
	download  []float64     // ms per Download
	submit    []float64     // µs per Submit (traced runs)
	pull      []float64     // ms per WaitAllocationSteady that had to pull (traced runs)
	cycles    int           // completed, checked client cycles
	attempted int
	failed    int
	failures  []string
	counters  Counters
	costPct   float64 // round objective as a percentage of the central optimum
	haveCost  bool
	nnz       int // nonzeros of the instance the distributed loop solved
	feasMs    float64
	groupMs   float64
}

// roundFacts are the RoundReport figures the per-layer metrics need.
type roundFacts struct {
	iterations, restarts, clients, dirty, suppressed int
	cohortRatio                                      float64
	degraded, incremental, warmStarted               bool
}

func factsOf(r *core.RoundReport) *roundFacts {
	return &roundFacts{
		iterations: r.Iterations, restarts: r.Restarts, clients: len(r.ClientAddrs),
		dirty: r.DirtyClients, suppressed: r.SuppressedNotifies, cohortRatio: r.CohortRatio,
		degraded: r.Degraded, incremental: r.Incremental, warmStarted: r.WarmStarted,
	}
}

// heldBytes is the heap the benchmark keeps for this record, which the
// heap figures leave out.
func (rec *roundRec) heldBytes() int64 {
	n := unsafe.Sizeof(*rec) + 8*uintptr(cap(rec.alloc)+cap(rec.download)+cap(rec.submit)+cap(rec.pull))
	if rec.facts != nil {
		n += unsafe.Sizeof(*rec.facts)
	}
	return int64(n)
}

func heldBytes(recs []*roundRec) int64 {
	n := 8 * int64(cap(recs))
	for _, rec := range recs {
		n += rec.heldBytes()
	}
	return n
}

func (rec *roundRec) fail(format string, args ...any) {
	rec.failed++
	if len(rec.failures) < 3 {
		rec.failures = append(rec.failures, fmt.Sprintf(format, args...))
	}
}

// Run brings up the fleet, measures its set-up, drives the closed loop
// and returns every metric of the run.
func Run(ctx context.Context, o Options) (*Result, error) {
	w := o.Workload
	traffic, err := NewTraffic(w, o.Seed)
	if err != nil {
		return nil, err
	}
	if o.Setups < 1 {
		o.Setups = setupRuns
	}
	res := &Result{}
	var f *Fleet
	var setups []float64
	kept := make([]core.AllocationBody, w.Clients)
	for s := 0; s < o.Setups; s++ {
		if f != nil {
			f.Close()
		}
		start := time.Now()
		f, err = NewFleet(w, traffic, o.Trace)
		if err != nil {
			return nil, err
		}
		up := time.Since(start)
		rec, _ := runCycle(ctx, f, traffic, traffic.First(), nil, make([]bool, w.Clients), kept, false)
		// Bring-up plus the cold round's timed window: the oracle and the
		// central reference that follow it are not set-up.
		setups = append(setups, (up + rec.timed).Seconds())
		res.add(rec)
	}
	defer f.Close()

	transport.ResetMatrixFrameStats()
	runtime.GC()
	heap0 := heapInuse() - f.tr.SpanBytes()
	stats0 := replicaStats(f)
	loopStart := time.Now()
	loopStartNs := f.tr.now()
	var recs []*roundRec
	heapAt := int64(-1)
	demands := traffic.First()
	for n := 1; ; n++ {
		if o.Rounds > 0 {
			if n > o.Rounds {
				break
			}
		} else if time.Since(loopStart).Seconds() >= o.Seconds {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		prev := demands
		if demands, err = traffic.Next(); err != nil {
			return nil, err
		}
		rec, _ := runCycle(ctx, f, traffic, demands, prev, traffic.OneShot(), kept, o.Trace)
		res.add(rec)
		recs = append(recs, rec)
		if n == heapRound {
			runtime.GC()
			heapAt = heapInuse() - f.tr.SpanBytes() - heldBytes(recs)
		}
	}
	runtime.GC()
	heap1 := heapInuse() - f.tr.SpanBytes() - heldBytes(recs)
	if heapAt < 0 {
		heapAt = heap1
	}
	stats1 := replicaStats(f)
	full, sparse, delta := transport.MatrixFrameStats()

	res.endToEnd(setups, recs, heapAt)
	if o.Trace {
		spans := f.tr.Spans()
		res.perLayer(recs, spans, loopStartNs, stats1.sub(stats0), float64(heap1-heap0), frameRate(full, sparse, delta))
		if o.SpanFile != "" {
			if err := f.tr.WriteSpans(o.SpanFile); err != nil {
				return nil, fmt.Errorf("write spans: %w", err)
			}
		}
	}
	return res, nil
}

// runCycle runs one closed-loop round: every client submits, the
// contact's RunRound closes the batch, clients that need an allocation
// collect it and download, then (untimed) the oracle and the central
// reference check the round. It returns the round's record and its report
// (nil when RunRound failed); callers keep only the record.
func runCycle(ctx context.Context, f *Fleet, traffic *Traffic, demands, prev []float64, oneShot []bool, kept []core.AllocationBody, trace bool) (*roundRec, *core.RoundReport) {
	w := traffic.w
	rec := &roundRec{}
	contact := f.Contact()
	tr := f.tr
	if trace {
		rec.submit = make([]float64, 0, len(f.clients))
	}
	submitted := make([]bool, len(f.clients))
	ok := make([]bool, len(f.clients))

	c0 := tr.Counters()
	start := time.Now()
	for i, cl := range f.clients {
		rec.attempted++
		cctx, done := tr.Call(ctx, callSubmit, 0)
		t0 := time.Now()
		err := cl.Submit(cctx, contact.Addr(), demands[i], f.lat[i])
		if trace {
			rec.submit = append(rec.submit, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		done()
		if err != nil {
			rec.fail("submit %s: %v", cl.Addr(), err)
			continue
		}
		submitted[i] = true
	}
	tr.TakePushed()

	rec.attempted++
	rctx, done := tr.Call(ctx, callRunRound, 0)
	rctx, cancel := context.WithTimeout(rctx, 60*time.Second)
	batchClose := time.Now()
	report, err := contact.RunRound(rctx)
	roundEnd := time.Now()
	cancel()
	done()
	rec.roundDur = roundEnd.Sub(batchClose)
	if report != nil {
		rec.facts = factsOf(report)
	}
	pushed := tr.TakePushed()
	if err != nil {
		rec.fail("round: %v", err)
	}

	// Allocations. On the fresh-demand workloads every client needs one
	// and the fleet pushes it. On the steady workload a client needs one
	// when its demand moved or it is one-shot this round; it waits on the
	// pull path, which returns at once when the fleet pushed. Persistent
	// clients whose demand did not move take a push if there is one and
	// otherwise keep their last allocation.
	need := make([]bool, len(f.clients))
	exact := make([]bool, len(f.clients))
	for i, cl := range f.clients {
		if !submitted[i] || report == nil {
			continue
		}
		at, wasPushed := pushed[cl.Addr()]
		steadyNeed := w.Steady && (prev == nil || oneShot[i] || demands[i] != prev[i])
		switch {
		case !w.Steady || wasPushed && !steadyNeed:
			need[i] = !w.Steady
			rec.attempted++
			actx, done := tr.Call(ctx, callWaitAllocation, report.Round)
			actx, cancel := context.WithTimeout(actx, 5*time.Second)
			alloc, err := cl.WaitAllocation(actx)
			cancel()
			done()
			if err != nil {
				rec.fail("allocation %s: %v", cl.Addr(), err)
				continue
			}
			kept[i], exact[i] = alloc, true
			if need[i] {
				rec.alloc = append(rec.alloc, ms(at.Sub(batchClose)))
			}
		case steadyNeed:
			need[i] = true
			rec.attempted++
			actx, done := tr.Call(ctx, callWaitSteady, report.Round)
			actx, cancel := context.WithTimeout(actx, 5*time.Second)
			t0 := time.Now()
			alloc, err := cl.WaitAllocationSteady(actx, pullPoll)
			waited := time.Since(t0)
			cancel()
			done()
			if err != nil {
				rec.fail("allocation %s: %v", cl.Addr(), err)
				continue
			}
			kept[i], exact[i] = alloc, true
			if wasPushed {
				rec.alloc = append(rec.alloc, ms(at.Sub(batchClose)))
			} else {
				// A real client waits on its own, concurrently with the
				// others: its allocation is in hand one pull after the
				// round commits.
				rec.alloc = append(rec.alloc, ms(roundEnd.Sub(batchClose)+waited))
				if trace {
					rec.pull = append(rec.pull, ms(waited))
				}
			}
		}
		ok[i] = true
	}

	// Downloads.
	got := make([]int, len(f.clients))
	for i, cl := range f.clients {
		if !need[i] || !ok[i] {
			continue
		}
		rec.attempted++
		dctx, done := tr.Call(ctx, callDownload, kept[i].Round)
		dctx, cancel := context.WithTimeout(dctx, 10*time.Second)
		t0 := time.Now()
		n, err := cl.Download(dctx, kept[i])
		rec.download = append(rec.download, ms(time.Since(t0)))
		cancel()
		done()
		if err != nil {
			rec.fail("download %s: %v", cl.Addr(), err)
			ok[i] = false
			continue
		}
		got[i] = n
	}
	rec.timed = time.Since(start)
	rec.counters = tr.Counters().Sub(c0)

	// Untimed from here: the oracle and the central reference.
	if report == nil {
		return rec, report
	}
	prob := traffic.Problem(demands)
	or := &Oracle{Prob: prob, Clients: clientAddrs(f), Replicas: f.addrs, Servers: f.replicas}
	planRound := report.Round
	if report.Incremental && report.DirtyClients == 0 {
		planRound = tr.InstalledRound() // a quiet commit installs nothing
	}
	rec.attempted++
	if err := or.Check(report, planRound); err != nil {
		rec.fail("oracle round %d: %v", report.Round, err)
		return rec, report
	}
	for i := range f.clients {
		if !ok[i] {
			continue
		}
		if err := or.CheckAllocation(i, report.Assignment[i], kept[i], exact[i]); err != nil {
			rec.fail("oracle: %v", err)
			continue
		}
		if need[i] {
			if want := downloadBytes(kept[i], bytesPerMB); got[i] != want {
				rec.fail("client %s downloaded %d bytes, want %d", f.clients[i].Addr(), got[i], want)
				continue
			}
		}
		rec.cycles++
	}

	ref, nnz, err := reference(ctx, tr, prob, w.Steady)
	if err != nil {
		rec.fail("central reference: %v", err)
		return rec, report
	}
	rec.nnz = nnz
	rec.costPct, rec.haveCost = 100*report.Objective/ref, true
	if trace {
		// The calls a full round makes on these inputs: group the clients
		// (cohorted fleets only), then check the instance the distributed
		// loop would solve. Both succeed by construction; only their time
		// is wanted.
		solve := prob
		if w.Steady {
			_, done := tr.Call(ctx, callGroup, report.Round)
			t0 := time.Now()
			g, _ := cohort.Group(prob, cohort.Options{})
			rec.groupMs = ms(time.Since(t0))
			done()
			solve = g.Reduced()
		}
		_, done := tr.Call(ctx, callCheckFeasible, report.Round)
		t0 := time.Now()
		_ = opt.CheckFeasible(solve)
		rec.feasMs = ms(time.Since(t0))
		done()
	}
	return rec, report
}

// reference is the central optimum of the round's instance (of its
// cohort-reduced instance on the cohorted workload: aggregation loses
// nothing) and the nonzero count of the instance the fleet's distributed
// loop solves.
func reference(ctx context.Context, tr *Tracer, prob *opt.Problem, cohorted bool) (float64, int, error) {
	_, done := tr.Call(ctx, callCentral, 0)
	defer done()
	if cohorted {
		g, err := cohort.Group(prob, cohort.Options{})
		if err != nil {
			return 0, 0, err
		}
		prob = g.Reduced()
	}
	res, err := central.New().Solve(prob)
	if err != nil {
		return 0, 0, err
	}
	return res.Objective, prob.Sparsity().NNZ(), nil
}

func clientAddrs(f *Fleet) []string {
	out := make([]string, len(f.clients))
	for i, cl := range f.clients {
		out[i] = cl.Addr()
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func heapInuse() int64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapInuse)
}

func frameRate(full, sparse, delta uint64) float64 {
	if total := full + sparse + delta; total > 0 {
		return float64(delta) / float64(total)
	}
	return 0
}

// fleetStats sums the replicas' runtime counters.
type fleetStats struct{ escalated, retried int64 }

func replicaStats(f *Fleet) fleetStats {
	var s fleetStats
	for _, rs := range f.replicas {
		s.escalated += rs.Stats.RoundsEscalated.Value()
		s.retried += rs.Stats.SendRetried.Value()
	}
	return s
}

func (s fleetStats) sub(o fleetStats) fleetStats {
	return fleetStats{s.escalated - o.escalated, s.retried - o.retried}
}
