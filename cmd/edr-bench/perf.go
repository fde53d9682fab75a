package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"edr/internal/admm"
	"edr/internal/cdpsm"
	"edr/internal/cohort"
	"edr/internal/core"
	"edr/internal/lddm"
	"edr/internal/model"
	"edr/internal/opt"
	"edr/internal/probgen"
	"edr/internal/sim"
	"edr/internal/solver"
	"edr/internal/transport"
)

// perfReport is the machine-readable round-hot-path benchmark: per-solver
// serial vs parallel cost at paper scale plus the wire cost of the matrix
// frames CDPSM exchanges every iteration. Written as BENCH_round.json so
// CI and regressions diff a stable schema rather than parse bench output.
type perfReport struct {
	Schema     string `json:"schema"`
	Seed       uint64 `json:"seed"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	Replicas   int    `json:"replicas"`
	// Density is the paper-scale instance's mask density nnz/(|C|·|N|).
	Density float64      `json:"density"`
	Solvers []solverPerf `json:"solvers"`
	Wire    wirePerf     `json:"wire"`
	// Cohort is the 10k-client cohort-scale entry: one round-equivalent
	// solve ungrouped vs through the cohort layer. Optional so reports
	// from pre-cohort builds still diff cleanly.
	Cohort *cohortPerf `json:"cohort_scale,omitempty"`
	// Sparse is the 10k-client sparse-scale entry: packed CDPSM kernel cost
	// and v1 vs v2 wire frames on a 20%-density regional instance.
	// Optional so reports from pre-sparse builds still diff cleanly.
	Sparse *sparseScalePerf `json:"sparse_scale,omitempty"`
	// SparseCohort is the 1M-client sparse-cohort entry: one cohorted
	// round's initiator data plane (warm aggregation, reduced solve,
	// disaggregation, install columns, notify bodies) through the dense
	// adapters vs the packed end-to-end path core now runs. Optional so
	// reports from earlier builds still diff cleanly.
	SparseCohort *sparseCohortPerf `json:"sparse_cohort,omitempty"`
	// Drift is the steady-state incremental sweep: incremental vs full
	// rounds over drifting demands at 10k clients (see driftPerf).
	// Optional so reports from pre-incremental builds still diff cleanly.
	Drift *driftPerf `json:"drift_sweep,omitempty"`
	Notes []string   `json:"notes,omitempty"`
}

// sparseCohortPerf pins the packed-pipeline claim at client scale: a
// cohorted round over 1M clients at ~20% density, dense adapters
// (AggregateRows/Disaggregate plus dense column and per-client notify
// construction) vs the packed path (CSR gather/scatter adapters, CSC
// install columns, per-cohort notify bodies, one final dense scatter for
// the report). Grouping and the sparsity builds are identical on both
// sides and excluded (GroupNs reports them); the reduced solve is
// included in both. AggDisagg isolates the aggregation/disaggregation
// phase the ≥3x tripwire guards.
type sparseCohortPerf struct {
	Clients  int     `json:"clients"`
	Regions  int     `json:"regions"`
	Replicas int     `json:"replicas"`
	Density  float64 `json:"density"`
	Cohorts  int     `json:"cohorts"`
	Ratio    float64 `json:"compression_ratio"`
	MaxIters int     `json:"max_iters"`
	GroupNs  int64   `json:"group_ns"`

	DenseRoundNs  int64   `json:"dense_round_ns_per_op"`
	PackedRoundNs int64   `json:"packed_round_ns_per_op"`
	RoundSpeedup  float64 `json:"round_speedup_vs_dense"`

	DenseAggDisaggNs  int64   `json:"dense_aggdisagg_ns_per_op"`
	PackedAggDisaggNs int64   `json:"packed_aggdisagg_ns_per_op"`
	AggDisaggSpeedup  float64 `json:"aggdisagg_speedup_vs_dense"`
}

// sparseScalePerf pins the sparse-core claims: the packed CDPSM kernel's
// cost at 10k clients and 20% density, and the wire saving of a kinded
// (sparse) estimate frame over the dense v1 layout. Kernel times exclude
// the feasibility oracle (not part of the iteration hot path).
type sparseScalePerf struct {
	Clients  int     `json:"clients"`
	Regions  int     `json:"regions"`
	Replicas int     `json:"replicas"`
	Density  float64 `json:"density"`
	MaxIters int     `json:"max_iters"`
	OracleNs int64   `json:"feasibility_oracle_ns"`
	SparseNs int64   `json:"sparse_kernel_ns_per_op"`
	// NsPerNNZIter is SparseNs per structural nonzero per iteration: the
	// kernel cost normalized to the work it scales with.
	NsPerNNZIter float64 `json:"sparse_kernel_ns_per_nnz_iter"`
	// One CDPSM iteration fleet-wide (N agents × N-1 peer pulls), framing
	// the same estimate matrix with the v1 dense codec vs the v2 kinded
	// chooser (sparse layout at this density).
	WireV1BytesPerIteration int     `json:"wire_v1_bytes_per_iteration"`
	WireV2BytesPerIteration int     `json:"wire_v2_bytes_per_iteration"`
	WireRatio               float64 `json:"wire_v1_over_v2"`
}

type cohortPerf struct {
	Clients  int     `json:"clients"`
	Regions  int     `json:"regions"`
	Cohorts  int     `json:"cohorts"`
	Ratio    float64 `json:"compression_ratio"`
	MaxIters int     `json:"max_iters"`
	// UngroupedNs is one CDPSM solve over the raw instance; CohortNs is
	// group + reduced solve + disaggregate over the same instance.
	UngroupedNs int64   `json:"ungrouped_ns_per_op"`
	CohortNs    int64   `json:"cohort_ns_per_op"`
	Speedup     float64 `json:"speedup_vs_ungrouped"`
}

type solverPerf struct {
	Algorithm           string  `json:"algorithm"`
	MaxIters            int     `json:"max_iters"`
	SerialNsPerOp       int64   `json:"serial_ns_per_op"`
	ParallelNsPerOp     int64   `json:"parallel_ns_per_op"`
	Speedup             float64 `json:"speedup_vs_serial"`
	SerialBytesPerOp    int64   `json:"serial_b_per_op"`
	ParallelBytesPerOp  int64   `json:"parallel_b_per_op"`
	SerialAllocsPerOp   int64   `json:"serial_allocs_per_op"`
	ParallelAllocsPerOp int64   `json:"parallel_allocs_per_op"`
}

type wirePerf struct {
	// One estimate frame: the |C|×|N| matrix reply CDPSM pulls per peer.
	BinaryFrameBytes int `json:"binary_frame_bytes"`
	// One CDPSM iteration fleet-wide: every agent pulls from N-1 peers.
	BinaryBytesPerIteration int `json:"binary_bytes_per_iteration"`
	// Kinded-frame mix of one live CDPSM round on an in-process fleet
	// (masked instance, 25 iterations): how many estimate replies shipped
	// as full, sparse, and delta frames, and the delta hit rate
	// delta/(full+sparse+delta).
	FullFrames   uint64  `json:"full_frames"`
	SparseFrames uint64  `json:"sparse_frames"`
	DeltaFrames  uint64  `json:"delta_frames"`
	DeltaHitRate float64 `json:"delta_hit_rate"`
	// FramesByAlgorithm is the same measurement per algorithm: CDPSM pulls
	// estimate matrices, LDDM ships μ-vectors, ADMM ships proximal
	// targets — each through the kinded chooser with per-peer delta-base
	// negotiation.
	FramesByAlgorithm map[string]frameMix `json:"frames_by_algorithm,omitempty"`
}

// frameMix is one live round's kinded-frame census.
type frameMix struct {
	Full         uint64  `json:"full"`
	Sparse       uint64  `json:"sparse"`
	Delta        uint64  `json:"delta"`
	DeltaHitRate float64 `json:"delta_hit_rate"`
}

// runPerf benchmarks the round hot path (solver kernels serial vs
// parallel, estimate-frame wire cost) and writes BENCH_round.json into
// outDir (cwd when empty). When baseline names a committed report, the
// fresh numbers are diffed against it and a gross regression fails the
// run — the threshold is deliberately lenient (see diffBaseline) because
// CI runners vary wildly in absolute speed.
func runPerf(outDir string, seed uint64, baseline string) error {
	const clients, replicas = 100, 10
	prob, err := probgen.MustFeasible(sim.NewRand(seed), probgen.Spec{
		Clients: clients, Replicas: replicas, Geo: true, DemandLo: 1, DemandHi: 6,
	})
	if err != nil {
		return err
	}
	report := perfReport{
		Schema:     "edr/bench-round/v2",
		Seed:       seed,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients:    clients,
		Replicas:   replicas,
	}
	report.Density = float64(prob.Sparsity().NNZ()) / float64(clients*replicas)
	if report.GOMAXPROCS <= 1 {
		report.Notes = append(report.Notes,
			"GOMAXPROCS=1: the auto-sized worker pool degrades to the serial kernel, so speedup_vs_serial ~1 is expected on this host")
	}

	mk := func(alg string, parallelism int) (solver.Solver, int) {
		switch alg {
		case "LDDM":
			s := lddm.New()
			s.MaxIters = 400
			s.Parallelism = parallelism
			return s, s.MaxIters
		case "CDPSM":
			s := cdpsm.New()
			s.MaxIters = 25
			s.Parallelism = parallelism
			return s, s.MaxIters
		default:
			s := admm.New()
			s.MaxIters = 60
			s.Parallelism = parallelism
			return s, s.MaxIters
		}
	}
	bench := func(s solver.Solver) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Solve(prob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, alg := range []string{"LDDM", "CDPSM", "ADMM"} {
		serialSolver, iters := mk(alg, -1)
		parallelSolver, _ := mk(alg, 0) // auto: GOMAXPROCS-wide pool
		serial := bench(serialSolver)
		parallel := bench(parallelSolver)
		sp := solverPerf{
			Algorithm:           alg,
			MaxIters:            iters,
			SerialNsPerOp:       serial.NsPerOp(),
			ParallelNsPerOp:     parallel.NsPerOp(),
			SerialBytesPerOp:    serial.AllocedBytesPerOp(),
			ParallelBytesPerOp:  parallel.AllocedBytesPerOp(),
			SerialAllocsPerOp:   serial.AllocsPerOp(),
			ParallelAllocsPerOp: parallel.AllocsPerOp(),
		}
		if parallel.NsPerOp() > 0 {
			sp.Speedup = float64(serial.NsPerOp()) / float64(parallel.NsPerOp())
		}
		report.Solvers = append(report.Solvers, sp)
		fmt.Printf("perf %-6s serial %12d ns/op  parallel %12d ns/op  speedup %.2fx\n",
			alg, sp.SerialNsPerOp, sp.ParallelNsPerOp, sp.Speedup)
	}

	wire, err := measureWire(prob.C(), prob.N())
	if err != nil {
		return err
	}
	if err := measureDeltaHitRate(&wire); err != nil {
		return err
	}
	report.Wire = wire
	fmt.Printf("perf wire   estimate frame %d B; per CDPSM iteration %d B\n",
		wire.BinaryFrameBytes, wire.BinaryBytesPerIteration)
	fmt.Printf("perf delta  live round frames: %d full / %d sparse / %d delta (hit rate %.2f)\n",
		wire.FullFrames, wire.SparseFrames, wire.DeltaFrames, wire.DeltaHitRate)

	cp, err := measureCohortScale(seed)
	if err != nil {
		return err
	}
	report.Cohort = cp
	fmt.Printf("perf cohort %d clients -> %d cohorts (%.0fx); ungrouped %12d ns/op  cohorted %12d ns/op  speedup %.0fx\n",
		cp.Clients, cp.Cohorts, cp.Ratio, cp.UngroupedNs, cp.CohortNs, cp.Speedup)

	sp, err := measureSparseScale(seed)
	if err != nil {
		return err
	}
	report.Sparse = sp
	fmt.Printf("perf sparse %d clients at %.0f%% density; packed kernel %12d ns/op (%.1f ns per nnz-iteration); wire %d B vs %d B per iteration (%.1fx)\n",
		sp.Clients, 100*sp.Density, sp.SparseNs, sp.NsPerNNZIter,
		sp.WireV1BytesPerIteration, sp.WireV2BytesPerIteration, sp.WireRatio)

	sc, err := measureSparseCohort(seed)
	if err != nil {
		return err
	}
	report.SparseCohort = sc
	fmt.Printf("perf spcoh  %d clients -> %d cohorts at %.0f%% density; round dense %12d ns/op  packed %12d ns/op  speedup %.1fx; agg+disagg %12d vs %12d ns/op (%.1fx)\n",
		sc.Clients, sc.Cohorts, 100*sc.Density, sc.DenseRoundNs, sc.PackedRoundNs, sc.RoundSpeedup,
		sc.DenseAggDisaggNs, sc.PackedAggDisaggNs, sc.AggDisaggSpeedup)

	dp, err := measureDriftSweep(seed)
	if err != nil {
		return err
	}
	report.Drift = dp
	fmt.Printf("perf drift  %d clients, clean rel gap %.2g\n", dp.Clients, dp.CleanRelGap)
	for _, pt := range dp.Points {
		fmt.Printf("perf drift  %5.1f%% drift: dirty %5d, suppressed %5d; incremental %12d ns  full %12d ns  speedup %5.1fx  rel gap %.2g\n",
			pt.DriftPct, pt.DirtyClients, pt.SuppressedNotifies, pt.IncrementalNs, pt.FullNs, pt.Speedup, pt.RelGap)
	}

	if outDir == "" {
		outDir = "."
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, "BENCH_round.json")
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	if baseline != "" {
		return diffBaseline(&report, baseline)
	}
	return nil
}

// diffBaseline compares a fresh perf report against a committed one and
// errors on gross regressions only: ≥5x slower per solver kernel or a
// wire frame ≥2x fatter. Absolute ns/op differs across machines, so the
// gate is a tripwire for accidental algorithmic blowups (an O(n) kernel
// going quadratic, a codec falling back to JSON), not a micro-benchmark.
func diffBaseline(fresh *perfReport, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("perf baseline: %w", err)
	}
	var base perfReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("perf baseline %s: %w", path, err)
	}
	if base.Schema != fresh.Schema {
		fmt.Printf("perf baseline %s has schema %q (current %q) — skipping diff\n", path, base.Schema, fresh.Schema)
		return nil
	}
	const slowdownLimit, wireLimit = 5.0, 2.0
	baseBy := make(map[string]solverPerf, len(base.Solvers))
	for _, sp := range base.Solvers {
		baseBy[sp.Algorithm] = sp
	}
	var regressions []string
	for _, sp := range fresh.Solvers {
		bp, ok := baseBy[sp.Algorithm]
		if !ok {
			continue
		}
		check := func(kind string, now, was int64) {
			if was > 0 && float64(now) > slowdownLimit*float64(was) {
				regressions = append(regressions, fmt.Sprintf("%s %s %.1fx slower (%d ns/op vs baseline %d)",
					sp.Algorithm, kind, float64(now)/float64(was), now, was))
			}
		}
		check("serial", sp.SerialNsPerOp, bp.SerialNsPerOp)
		check("parallel", sp.ParallelNsPerOp, bp.ParallelNsPerOp)
	}
	if was := base.Wire.BinaryFrameBytes; was > 0 &&
		float64(fresh.Wire.BinaryFrameBytes) > wireLimit*float64(was) {
		regressions = append(regressions, fmt.Sprintf("binary estimate frame %.1fx fatter (%d B vs baseline %d)",
			float64(fresh.Wire.BinaryFrameBytes)/float64(was), fresh.Wire.BinaryFrameBytes, was))
	}
	// Cohort-scale tripwire: both sides relative (ungrouped vs cohorted on
	// the SAME run), so runner speed cancels out and a hard floor is safe.
	// Baselines from pre-cohort builds simply lack the section.
	if base.Cohort != nil && fresh.Cohort != nil {
		const cohortFloor = 10.0
		if base.Cohort.Speedup >= cohortFloor && fresh.Cohort.Speedup < cohortFloor {
			regressions = append(regressions, fmt.Sprintf(
				"cohort-scale speedup fell to %.1fx (baseline %.1fx, floor %gx)",
				fresh.Cohort.Speedup, base.Cohort.Speedup, cohortFloor))
		}
	}
	// Sparse-scale tripwires: the packed kernel's per-nnz-iteration cost
	// must stay within the kernel slowdown limit of the baseline, and a
	// kinded estimate frame must stay ≥2x leaner than the dense v1 layout
	// (relative on the same run, like the cohort gate).
	if base.Sparse != nil && fresh.Sparse != nil {
		const wireFloor = 2.0
		if was, now := base.Sparse.NsPerNNZIter, fresh.Sparse.NsPerNNZIter; was > 0 && now > slowdownLimit*was {
			regressions = append(regressions, fmt.Sprintf(
				"sparse-scale kernel %.1fx slower (%.1f ns per nnz-iteration vs baseline %.1f)",
				now/was, now, was))
		}
		if base.Sparse.WireRatio >= wireFloor && fresh.Sparse.WireRatio < wireFloor {
			regressions = append(regressions, fmt.Sprintf(
				"sparse-scale wire saving fell to %.1fx (baseline %.1fx, floor %gx)",
				fresh.Sparse.WireRatio, base.Sparse.WireRatio, wireFloor))
		}
	}
	// Sparse-cohort tripwires, relative like the gates above: the packed
	// aggregation/disaggregation phase must stay ≥3x over the dense
	// adapters at 1M clients, and the packed round end to end ≥5x.
	if base.SparseCohort != nil && fresh.SparseCohort != nil {
		const aggFloor, roundFloor = 3.0, 5.0
		if base.SparseCohort.AggDisaggSpeedup >= aggFloor && fresh.SparseCohort.AggDisaggSpeedup < aggFloor {
			regressions = append(regressions, fmt.Sprintf(
				"sparse-cohort agg/disagg speedup fell to %.1fx (baseline %.1fx, floor %gx)",
				fresh.SparseCohort.AggDisaggSpeedup, base.SparseCohort.AggDisaggSpeedup, aggFloor))
		}
		if base.SparseCohort.RoundSpeedup >= roundFloor && fresh.SparseCohort.RoundSpeedup < roundFloor {
			regressions = append(regressions, fmt.Sprintf(
				"sparse-cohort round speedup fell to %.1fx (baseline %.1fx, floor %gx)",
				fresh.SparseCohort.RoundSpeedup, base.SparseCohort.RoundSpeedup, roundFloor))
		}
	}
	// Drift-sweep tripwires, relative like the gates above: the 1%-drift
	// (quiet) round must stay ≥5x faster than the full solve on the same
	// run, and the 0%-drift round's objective must match the committed
	// full solve exactly (the clean path re-commits its assignment, so
	// ≤1e-9 is a bitwise-equality check, not a tolerance).
	if base.Drift != nil && fresh.Drift != nil {
		const quietFloor, cleanGapLimit = 5.0, 1e-9
		quiet := func(d *driftPerf) *driftPoint {
			for i := range d.Points {
				if d.Points[i].DriftPct == 1 {
					return &d.Points[i]
				}
			}
			return nil
		}
		if bq, fq := quiet(base.Drift), quiet(fresh.Drift); bq != nil && fq != nil &&
			bq.Speedup >= quietFloor && fq.Speedup < quietFloor {
			regressions = append(regressions, fmt.Sprintf(
				"drift-sweep 1%%-drift speedup fell to %.1fx (baseline %.1fx, floor %gx)",
				fq.Speedup, bq.Speedup, quietFloor))
		}
		if base.Drift.CleanRelGap <= cleanGapLimit && fresh.Drift.CleanRelGap > cleanGapLimit {
			regressions = append(regressions, fmt.Sprintf(
				"drift-sweep clean round diverged from the committed full solve: rel gap %.2g (limit %g)",
				fresh.Drift.CleanRelGap, cleanGapLimit))
		}
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintf(os.Stderr, "perf regression: %s\n", r)
		}
		return fmt.Errorf("perf: %d regression(s) against baseline %s", len(regressions), path)
	}
	fmt.Printf("perf baseline %s: no regressions (limits: %gx kernel, %gx wire)\n", path, slowdownLimit, wireLimit)
	return nil
}

// measureCohortScale times one round-equivalent CDPSM solve of a
// 10k-client regional instance ungrouped vs through the cohort layer
// (group + reduced solve + disaggregate). The ungrouped solve runs once —
// it is seconds, not microseconds, and the comparison is a tripwire for
// the ≥10x claim, not a microbenchmark; the cohort path takes the best of
// three runs to shave scheduler noise.
func measureCohortScale(seed uint64) (*cohortPerf, error) {
	const clients, replicas, regions, iters = 10000, 10, 50, 25
	prob, err := probgen.MustFeasible(sim.NewRand(seed), probgen.Spec{
		Clients:  clients,
		Replicas: replicas,
		Regions:  regions,
		DemandLo: 0.005,
		DemandHi: 0.05,
	})
	if err != nil {
		return nil, err
	}
	s := cdpsm.New()
	s.MaxIters = iters

	t0 := time.Now()
	if _, err := s.Solve(prob); err != nil {
		return nil, err
	}
	ungrouped := time.Since(t0)

	var best time.Duration
	var g *cohort.Grouping
	for run := 0; run < 3; run++ {
		t0 = time.Now()
		gg, err := cohort.Group(prob, cohort.Options{})
		if err != nil {
			return nil, err
		}
		res, err := s.Solve(gg.Reduced())
		if err != nil {
			return nil, err
		}
		if _, err := gg.Disaggregate(res.Assignment); err != nil {
			return nil, err
		}
		if d := time.Since(t0); best == 0 || d < best {
			best = d
		}
		g = gg
	}
	cp := &cohortPerf{
		Clients:     clients,
		Regions:     regions,
		Cohorts:     g.K(),
		Ratio:       g.Ratio(),
		MaxIters:    iters,
		UngroupedNs: ungrouped.Nanoseconds(),
		CohortNs:    best.Nanoseconds(),
	}
	if cp.CohortNs > 0 {
		cp.Speedup = float64(cp.UngroupedNs) / float64(cp.CohortNs)
	}
	return cp, nil
}

// measureSparseScale times the packed CDPSM kernel on a 10k-client
// regional instance masked down to the 2 nearest replicas per client
// (exactly 20% density). The measurement is fixed-iteration kernel cost,
// not convergence speed: Tol is pinned unreachably low, and the step is
// small enough that no estimate reaches an exact fixed point inside the
// window (at the default step every agent stops moving after 8 iterations
// on this instance, which ends the solve whatever Tol says), so every
// configured iteration runs — a solve that stops early is an error. The
// solver runs at 5 and at 105 iterations and the timings are differenced:
// the feasibility oracle and solver setup are identical in both solves
// and cancel, which a separately-timed oracle subtraction cannot
// guarantee (the standalone oracle run can be slower than the one inside
// Solve, driving the kernel estimate negative). The 100-iteration window
// keeps the kernel time well above the run-to-run jitter of the 1 s
// oracle; each configuration takes the best of two runs.
func measureSparseScale(seed uint64) (*sparseScalePerf, error) {
	const clients, replicas, regions, itersLo, iters, keep = 10000, 10, 50, 5, 105, 2
	prob, err := probgen.New(sim.NewRand(seed), probgen.Spec{
		Clients:  clients,
		Replicas: replicas,
		Regions:  regions,
		DemandLo: 0.01,
		DemandHi: 0.1,
	})
	if err != nil {
		return nil, err
	}
	for i := range prob.Latency {
		row := prob.Latency[i]
		idx := make([]int, len(row))
		for j := range idx {
			idx[j] = j
		}
		sort.Slice(idx, func(a, b int) bool { return row[idx[a]] < row[idx[b]] })
		for _, j := range idx[keep:] {
			row[j] = 10 * prob.MaxLatency
		}
	}
	prob.InvalidateMask()

	// The oracle timing is informational only (it no longer feeds the
	// kernel numbers); one standalone run suffices.
	t0 := time.Now()
	if err := opt.CheckFeasible(prob); err != nil {
		return nil, fmt.Errorf("sparse-scale instance: %w", err)
	}
	oracle := time.Since(t0)

	mk := func(maxIters int) *cdpsm.Solver {
		s := cdpsm.New()
		s.MaxIters = maxIters
		s.Tol = 1e-300
		s.Step = opt.ConstantStep(1e-4)
		return s
	}
	var res *solver.Result
	// solve returns the best-of-two wall time for maxIters iterations,
	// keeping the last assignment for the wire measurement below.
	solve := func(maxIters int) (time.Duration, error) {
		var best time.Duration
		for run := 0; run < 2; run++ {
			t0 := time.Now()
			r, err := mk(maxIters).Solve(prob)
			if err != nil {
				return 0, err
			}
			if r.Iterations != maxIters {
				return 0, fmt.Errorf("sparse-scale solve stopped after %d of %d iterations", r.Iterations, maxIters)
			}
			if d := time.Since(t0); best == 0 || d < best {
				best = d
			}
			res = r
		}
		return best, nil
	}
	// Extrapolate the fixed-cost-free per-iteration time back to the full
	// iteration count: (T_hi − T_lo) covers hi−lo iterations.
	tLo, err := solve(itersLo)
	if err != nil {
		return nil, err
	}
	tHi, err := solve(iters)
	if err != nil {
		return nil, err
	}
	kernel := (tHi - tLo) * iters / (iters - itersLo)
	if kernel < 0 {
		kernel = 0
	}

	spz := prob.Sparsity()
	v1 := len(transport.AppendMatrix(nil, res.Assignment))
	v2 := len(transport.AppendMatrixKinded(nil, res.Assignment, nil))
	pulls := replicas * (replicas - 1)
	sp := &sparseScalePerf{
		Clients:                 clients,
		Regions:                 regions,
		Replicas:                replicas,
		Density:                 float64(spz.NNZ()) / float64(clients*replicas),
		MaxIters:                iters,
		OracleNs:                oracle.Nanoseconds(),
		SparseNs:                kernel.Nanoseconds(),
		NsPerNNZIter:            float64(kernel.Nanoseconds()) / float64(spz.NNZ()*iters),
		WireV1BytesPerIteration: v1 * pulls,
		WireV2BytesPerIteration: v2 * pulls,
	}
	if v2 > 0 {
		sp.WireRatio = float64(v1) / float64(v2)
	}
	return sp, nil
}

// measureDeltaHitRate runs one live round per algorithm on an in-process
// fleet (5 replicas, latency-masked links) and reads the kinded matrix
// frame counters: every kinded body the round ships — CDPSM estimate
// matrices, LDDM μ-vectors, ADMM proximal targets — is counted by kind,
// giving the measured delta-frame hit rate of the per-peer base
// negotiation. The CDPSM numbers also fill the report's historical
// top-level fields.
func measureDeltaHitRate(w *wirePerf) error {
	w.FramesByAlgorithm = make(map[string]frameMix, 3)
	for _, alg := range []core.Algorithm{core.CDPSM, core.LDDM, core.ADMM} {
		mix, err := liveRoundFrames(alg)
		if err != nil {
			return fmt.Errorf("%s live round: %w", alg, err)
		}
		w.FramesByAlgorithm[string(alg)] = mix
		if alg == core.CDPSM {
			w.FullFrames, w.SparseFrames, w.DeltaFrames = mix.Full, mix.Sparse, mix.Delta
			w.DeltaHitRate = mix.DeltaHitRate
		}
	}
	return nil
}

// liveRoundFrames runs one round of alg over a masked in-process fleet
// and returns the kinded-frame census. The client count is sized so
// vectors are large enough for the delta layout to win once per-client
// values go bit-stable (LDDM μ for exactly-served clients, ADMM targets
// for clamped ones, CDPSM estimates between consensus steps).
func liveRoundFrames(alg core.Algorithm) (frameMix, error) {
	net := transport.NewInProcNetwork()
	prices := []float64{1, 3, 5, 7, 9}
	names := make([]string, len(prices))
	for i := range prices {
		names[i] = fmt.Sprintf("r%d", i+1)
	}
	var servers []*core.ReplicaServer
	defer func() {
		for _, rs := range servers {
			rs.Close()
		}
	}()
	nClients := 8
	maxIters := 25
	tol := 0.0
	if alg != core.CDPSM {
		nClients = 32 // per-client vectors: give the delta layout room
	}
	if alg == core.ADMM {
		// ADMM's proximal targets only go bit-stable as the iterates close
		// on the fixed point; run well past the default 2% convergence
		// bar so the delta layout has stable entries to exploit.
		maxIters, tol = 60, 1e-9
	}
	for i, price := range prices {
		rs, err := core.NewReplicaServer(net, names[i], names, core.ReplicaConfig{
			Replica:   model.NewReplica(names[i], price),
			Algorithm: alg,
			MaxIters:  maxIters,
			Tol:       tol,
		})
		if err != nil {
			return frameMix{}, err
		}
		servers = append(servers, rs)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var clients []*core.Client
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
	}()
	for i := 0; i < nClients; i++ {
		cl, err := core.NewClient(net, fmt.Sprintf("c%d", i+1))
		if err != nil {
			return frameMix{}, err
		}
		clients = append(clients, cl)
		lat := make(map[string]float64, len(names))
		for j, name := range names {
			// Mask two of the five replicas per client (rotating), leaving
			// a ~60%-density instance so sparse and delta layouts compete.
			// Every other client is pinned to a single nearby replica (the
			// common geo shape): its column entry rides the proximal cap
			// clamp, which is what gives ADMM targets bit-stable entries
			// for the delta layout to exploit.
			masked := (i+j)%5 < 2
			if i%2 == 0 {
				masked = j != i%len(names)
			}
			if masked {
				lat[name] = 1 // far beyond any latency bound
			} else {
				lat[name] = 0.0005
			}
		}
		// Size demands so the aggregate stays ~1/3 of the 500 MB fleet
		// bandwidth at either client count — 32 clients of 10+3i MB would
		// be infeasible outright.
		demand := (10 + float64(i%8)*3) * 8 / float64(nClients)
		if err := cl.Submit(ctx, names[0], demand, lat); err != nil {
			return frameMix{}, err
		}
	}
	transport.ResetMatrixFrameStats()
	if _, err := servers[0].RunRound(ctx); err != nil {
		return frameMix{}, err
	}
	full, sparse, delta := transport.MatrixFrameStats()
	mix := frameMix{Full: full, Sparse: sparse, Delta: delta}
	if total := full + sparse + delta; total > 0 {
		mix.DeltaHitRate = float64(delta) / float64(total)
	}
	return mix, nil
}

// measureSparseCohort times one cohorted round's initiator data plane at
// 1M clients / 50 regions, masked to the 2 nearest replicas per client
// (~20% density): warm-start aggregation, the reduced solve, result
// disaggregation, per-replica install columns, and client-notify body
// construction — once through the dense cohort adapters (the pre-packed
// path) and once through the packed CSR/CSC pipeline core now runs,
// ending in the packed path's one dense scatter for the report matrix.
// Grouping and the (cached) mask/sparsity builds are identical on both
// sides and run once up front; each side takes the best of three rounds.
func measureSparseCohort(seed uint64) (*sparseCohortPerf, error) {
	const clients, replicas, regions, iters, keep = 1_000_000, 10, 50, 25, 2
	prob, err := probgen.New(sim.NewRand(seed), probgen.Spec{
		Clients:  clients,
		Replicas: replicas,
		Regions:  regions,
		DemandLo: 5e-5,
		DemandHi: 5e-4,
	})
	if err != nil {
		return nil, err
	}
	for i := range prob.Latency {
		row := prob.Latency[i]
		idx := make([]int, len(row))
		for j := range idx {
			idx[j] = j
		}
		sort.Slice(idx, func(a, b int) bool { return row[idx[a]] < row[idx[b]] })
		for _, j := range idx[keep:] {
			row[j] = 10 * prob.MaxLatency
		}
	}
	prob.InvalidateMask()

	t0 := time.Now()
	g, err := cohort.Group(prob, cohort.Options{})
	if err != nil {
		return nil, err
	}
	groupNs := time.Since(t0).Nanoseconds()
	// Feasibility on the reduced instance: homogeneous-mask cohorts make
	// the answer identical to the ungrouped one (§10), at |K| max-flow
	// rows instead of 1M — minutes of oracle otherwise.
	if err := opt.CheckFeasible(g.Reduced()); err != nil {
		return nil, fmt.Errorf("sparse-cohort instance: %w", err)
	}
	fullSp, redSp := g.Sparse() // primes both cached sparsity views

	warm, err := prob.UniformStart() // stands in for the last-good history
	if err != nil {
		return nil, err
	}
	repAddrs := make([]string, replicas)
	for j := range repAddrs {
		repAddrs[j] = prob.System.Replicas[j].Name
	}
	s := cdpsm.New()
	s.MaxIters = iters
	reduced := g.Reduced()
	sink := 0.0

	// Dense round: AggregateRows → solve → Disaggregate → dense column
	// reads → one per-replica allocation body built and marshaled per
	// client (the pre-packed notify path marshals |C| messages). The
	// disaggregated matrix doubles as the report matrix for free.
	denseRound := func() (total, agg time.Duration, err error) {
		start := time.Now()
		ta := time.Now()
		warmK := g.AggregateRows(warm)
		agg += time.Since(ta)
		sink += warmK[0][0]
		res, err := s.Solve(reduced)
		if err != nil {
			return 0, 0, err
		}
		ta = time.Now()
		x, err := g.Disaggregate(res.Assignment)
		if err != nil {
			return 0, 0, err
		}
		agg += time.Since(ta)
		for j := 0; j < replicas; j++ {
			col := make([]float64, clients)
			for i := range col {
				col[i] = x[i][j]
			}
			sink += col[clients-1]
		}
		for i := 0; i < clients; i++ {
			per := make(map[string]float64, keep)
			for j := 0; j < replicas; j++ {
				if x[i][j] > 0 {
					per[repAddrs[j]] = x[i][j]
				}
			}
			b, err := json.Marshal(core.AllocationBody{Round: 1, PerReplicaMB: per, Algorithm: "cdpsm", Iterations: iters})
			if err != nil {
				return 0, 0, err
			}
			sink += float64(len(b))
		}
		return time.Since(start), agg, nil
	}

	// Packed round: packed aggregation + scatter to the reduced spec shape
	// → solve → gather + packed disaggregation → CSC install columns →
	// one notify body built and marshaled per cohort (members share it; the
	// fan-out sends are network, not initiator CPU) → final dense scatter
	// for the report.
	warmBuf := make([]float64, redSp.NNZ())
	warmKmat := opt.NewMatrix(g.K(), replicas)
	vkBuf := make([]float64, redSp.NNZ())
	xBuf := make([]float64, fullSp.NNZ())
	packedRound := func() (total, agg time.Duration, err error) {
		start := time.Now()
		ta := time.Now()
		warmPk := g.AggregateRowsPacked(warm, warmBuf)
		redSp.Scatter(warmKmat, warmPk)
		agg += time.Since(ta)
		sink += warmKmat[0][0]
		res, err := s.Solve(reduced)
		if err != nil {
			return 0, 0, err
		}
		ta = time.Now()
		vk := redSp.Gather(vkBuf, res.Assignment)
		xPk, err := g.DisaggregatePacked(vk, xBuf)
		if err != nil {
			return 0, 0, err
		}
		agg += time.Since(ta)
		for j := 0; j < replicas; j++ {
			col := make([]float64, clients)
			for s := fullSp.ColStart[j]; s < fullSp.ColStart[j+1]; s++ {
				col[fullSp.RowIdx[s]] = xPk[fullSp.PosCSR[s]]
			}
			sink += col[clients-1]
		}
		for k := 0; k < g.K(); k++ {
			kb, ke := redSp.RowStart[k], redSp.RowStart[k+1]
			unit := make([]float64, ke-kb)
			addrs := make([]string, ke-kb)
			sum := 0.0
			for t := range unit {
				v := vk[kb+t]
				if v < 0 {
					v = 0
				}
				unit[t], addrs[t] = v, repAddrs[redSp.ColIdx[kb+t]]
				sum += v
			}
			if sum > 0 {
				for t := range unit {
					unit[t] /= sum
				}
			}
			b, err := json.Marshal(core.CohortAllocationBody{Round: 1, Algorithm: "cdpsm", Iterations: iters, Replicas: addrs, UnitMB: unit})
			if err != nil {
				return 0, 0, err
			}
			sink += float64(len(b))
		}
		full := opt.NewMatrix(clients, replicas)
		fullSp.Scatter(full, xPk)
		sink += full[clients-1][0]
		return time.Since(start), agg, nil
	}

	best := func(round func() (time.Duration, time.Duration, error)) (time.Duration, time.Duration, error) {
		var bTotal, bAgg time.Duration
		for run := 0; run < 3; run++ {
			total, agg, err := round()
			if err != nil {
				return 0, 0, err
			}
			if bTotal == 0 || total < bTotal {
				bTotal = total
			}
			if bAgg == 0 || agg < bAgg {
				bAgg = agg
			}
		}
		return bTotal, bAgg, nil
	}
	denseTotal, denseAgg, err := best(denseRound)
	if err != nil {
		return nil, err
	}
	packedTotal, packedAgg, err := best(packedRound)
	if err != nil {
		return nil, err
	}
	_ = sink

	sc := &sparseCohortPerf{
		Clients:           clients,
		Regions:           regions,
		Replicas:          replicas,
		Density:           float64(fullSp.NNZ()) / float64(clients*replicas),
		Cohorts:           g.K(),
		Ratio:             g.Ratio(),
		MaxIters:          iters,
		GroupNs:           groupNs,
		DenseRoundNs:      denseTotal.Nanoseconds(),
		PackedRoundNs:     packedTotal.Nanoseconds(),
		DenseAggDisaggNs:  denseAgg.Nanoseconds(),
		PackedAggDisaggNs: packedAgg.Nanoseconds(),
	}
	if sc.PackedRoundNs > 0 {
		sc.RoundSpeedup = float64(sc.DenseRoundNs) / float64(sc.PackedRoundNs)
	}
	if sc.PackedAggDisaggNs > 0 {
		sc.AggDisaggSpeedup = float64(sc.DenseAggDisaggNs) / float64(sc.PackedAggDisaggNs)
	}
	return sc, nil
}

// measureWire frames one C×N estimate reply and extrapolates to a full CDPSM iteration (N agents each pulling N-1
// peer estimates).
func measureWire(c, n int) (wirePerf, error) {
	r := sim.NewRand(7)
	est := opt.NewMatrix(c, n)
	for i := range est {
		for j := range est[i] {
			est[i][j] = r.Range(0, 40)
		}
	}
	msg, err := transport.NewMessage("cdpsm.estimate.ack", "replica1", cdpsm.EstimateReply{Estimate: est})
	if err != nil {
		return wirePerf{}, err
	}
	var buf bytes.Buffer
	if err := transport.WriteFrame(&buf, msg); err != nil {
		return wirePerf{}, err
	}
	return wirePerf{
		BinaryFrameBytes:        buf.Len(),
		BinaryBytesPerIteration: buf.Len() * n * (n - 1),
	}, nil
}
