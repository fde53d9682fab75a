package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Metric is one named, unit-carrying figure of a run.
type Metric struct {
	Name  string
	Value float64
	Unit  string
	// Layer marks a per-layer metric (printed with --trace 1); the rest
	// are end-to-end.
	Layer bool
}

// Result is one run: its op tally and metrics in print order.
type Result struct {
	Attempted, Failed int
	Failures          []string
	Rounds            int // measured rounds
	Metrics           []Metric
}

func (r *Result) add(rec *roundRec) {
	r.Attempted += rec.attempted
	r.Failed += rec.failed
	for _, f := range rec.failures {
		if len(r.Failures) < 5 {
			r.Failures = append(r.Failures, f)
		}
	}
}

func (r *Result) put(name string, v float64, unit string, layer bool) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: v, Unit: unit, Layer: layer})
}

// ErrorRate is failed ops over attempted ops.
func (r *Result) ErrorRate() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// Value returns the named metric.
func (r *Result) Value(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// endToEnd derives the user-visible metrics from the measured rounds.
func (r *Result) endToEnd(setups []float64, recs []*roundRec, heap int64) {
	var rounds, allocs, allocTails, downloads, costs, coordMsgs, coordBytes []float64
	cycles, timed := 0, 0.0
	for _, rec := range recs {
		rounds = append(rounds, ms(rec.roundDur))
		allocs = append(allocs, rec.alloc...)
		if len(rec.alloc) > 0 {
			allocTails = append(allocTails, quantile(rec.alloc, 0.9))
		}
		downloads = append(downloads, rec.download...)
		if rec.haveCost {
			costs = append(costs, rec.costPct)
		}
		m, b := rec.counters.Coord()
		coordMsgs = append(coordMsgs, float64(m))
		coordBytes = append(coordBytes, float64(b))
		cycles += rec.cycles
		timed += rec.timed.Seconds()
	}
	r.put("setup_s", median(setups), "s", false)
	r.put("round_ms_p50", median(rounds), "ms", false)
	r.put("alloc_ms_p50", quantile(allocs, 0.5), "ms", false)
	// The bounded tail is the slow clients of a typical round: each
	// round's p90, then the median over rounds. A tail pooled over every
	// round is decided by rare slow rounds (an incremental round the gate
	// escalates to a full solve), which some seeds draw several times and
	// others never, so its spread between seeds is that rare event's. The
	// pooled p99 is reported with the per-layer figures.
	r.put("alloc_ms_p90", median(allocTails), "ms", false)
	r.put("client.alloc_ms_p99", quantile(allocs, 0.99), "ms", true)
	r.put("download_ms_p50", median(downloads), "ms", false)
	r.put("clients_per_s", float64(cycles)/math.Max(timed, 1e-9), "1/s", false)
	// cost_pct_of_opt = 100 + cost_gap_pct. The gap itself is not a
	// bounded metric: on the converging engines it is a few millionths of
	// the cost, and its relative spread between seeds is meaningless.
	r.put("cost_pct_of_opt", mean(costs), "%", false)
	r.put("core.cost_gap_pct", mean(costs)-100, "%", true)
	r.put("coord_msgs_per_round", interquartileMean(coordMsgs), "msg", false)
	r.put("coord_bytes_per_round", interquartileMean(coordBytes), "B", false)
	r.put("heap_mb", float64(heap)/(1<<20), "MB", false)
	r.Rounds = len(recs)
}

// perLayer derives the per-layer metrics of a traced run from its spans
// (those that started inside the measured loop) and round records.
func (r *Result) perLayer(recs []*roundRec, spans []Span, loopStart int64, st fleetStats, heapGrowth, deltaRate float64) {
	n := float64(len(recs))
	if n == 0 {
		n = 1
	}
	children := make(map[uint32][]*Span)
	var sendNs, handleNs [numClasses]int64
	algNs := map[string]int64{}
	for k := range spans {
		s := &spans[k]
		if s.Start < loopStart {
			continue
		}
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
		switch s.Kind {
		case kindSend:
			sendNs[verbClass[s.Verb]] += s.End - s.Start
		case kindHandle:
			handleNs[verbClass[s.Verb]] += s.End - s.Start
			if a := algOfVerb(verbs[s.Verb]); a != "" {
				algNs[a] += s.End - s.Start
			}
		}
	}

	var total Counters
	for _, rec := range recs {
		for c := range total.Msgs {
			total.Msgs[c] += rec.counters.Msgs[c]
			total.Bytes[c] += rec.counters.Bytes[c]
		}
	}
	for c := 0; c < classOther; c++ {
		name := "transport." + classNames[c] + "."
		r.put(name+"msgs_per_round", float64(total.Msgs[c])/n, "msg", true)
		r.put(name+"bytes_per_round", float64(total.Bytes[c])/n, "B", true)
		r.put(name+"send_ms_per_round", float64(sendNs[c])/1e6/n, "ms", true)
		r.put(name+"handler_ms_per_round", float64(handleNs[c])/1e6/n, "ms", true)
	}
	r.put("transport.delta_hit_rate", deltaRate, "ratio", true)

	// Round phases from the initiator's sends under each RunRound span.
	var phase [7]float64 // gather prepare start iterate finish install notify
	var selfMs, iterNs float64
	for _, s := range spans {
		if s.Start < loopStart || s.Kind != kindCall || s.Verb != callRunRound {
			continue
		}
		p, self := roundPhases(s, children[s.ID])
		for k := range phase {
			phase[k] += p[k]
		}
		selfMs += self
		iterNs += p[3] * 1e6
	}
	for k, name := range []string{"gather", "prepare", "start", "iterate", "finish", "install", "notify"} {
		r.put("core.phase."+name+"_ms", phase[k]/n, "ms", true)
	}
	r.put("core.self_ms", selfMs/n, "ms", true)

	// distIters counts distributed iterations only: an incremental round
	// reports the iterations of its in-process dirty-subset solve.
	var iters, distIters, nnz, restarts, degraded, incremental, dirty, suppressed, warm, ratio, feas, group float64
	var submits, pulls, rounds []float64
	for _, rec := range recs {
		rounds = append(rounds, ms(rec.roundDur))
		submits = append(submits, rec.submit...)
		pulls = append(pulls, rec.pull...)
		feas += rec.feasMs
		group += rec.groupMs
		nnz += float64(rec.nnz)
		fa := rec.facts
		if fa == nil {
			continue
		}
		iters += float64(fa.iterations)
		if !fa.incremental {
			distIters += float64(fa.iterations)
		}
		restarts += float64(fa.restarts)
		clients := math.Max(1, float64(fa.clients))
		dirty += float64(fa.dirty) / clients
		suppressed += float64(fa.suppressed) / clients
		ratio += fa.cohortRatio
		degraded += b2f(fa.degraded)
		incremental += b2f(fa.incremental)
		warm += b2f(fa.warmStarted)
	}
	r.put("core.iterations_per_round", iters/n, "iter", true)
	r.put("engine.iteration_ms", iterNs/1e6/math.Max(distIters, 1), "ms", true)
	r.put("core.restarts_per_round", restarts/n, "count", true)
	r.put("core.degraded_frac", degraded/n, "ratio", true)
	r.put("core.escalated_frac", float64(st.escalated)/n, "ratio", true)
	r.put("core.incremental_frac", incremental/n, "ratio", true)
	r.put("core.dirty_frac", dirty/n, "ratio", true)
	r.put("core.suppressed_frac", suppressed/n, "ratio", true)
	r.put("core.warm_started_frac", warm/n, "ratio", true)
	r.put("core.send_retries_per_round", float64(st.retried)/n, "count", true)
	r.put("core.cohort_ratio", ratio/n, "ratio", true)
	r.put("core.retained_kb_per_round", heapGrowth/1024/n, "KB", true)
	for _, a := range []string{"lddm", "admm", "cdpsm"} {
		perIter := float64(algNs[a]) / math.Max(distIters, 1)
		perNNZ := 0.0
		if nnz > 0 {
			perNNZ = perIter / (nnz / n)
		}
		r.put(a+".handler_ms_per_iter", perIter/1e6, "ms", true)
		r.put(a+".ns_per_nnz_iter", perNNZ, "ns", true)
	}
	r.put("opt.check_feasible_ms", feas/n, "ms", true)
	r.put("cohort.group_ms", group/n, "ms", true)
	r.put("client.submit_us_p50", median(submits), "us", true)
	r.put("client.pull_ms_p50", median(pulls), "ms", true)
	r.put("trace.round_ms_p50", median(rounds), "ms", true)
}

// roundPhases splits one RunRound span by its initiator sends: the
// window of each send class, the gaps before round.start (prepare) and
// before replica.assign (finish), and the span's self time (what no send
// covers).
func roundPhases(round Span, kids []*Span) ([7]float64, float64) {
	type window struct{ first, last int64 }
	var win [numClasses]*window
	var iter *window
	var ivs [][2]int64
	grow := func(w **window, s *Span) {
		if *w == nil {
			*w = &window{s.Start, s.End}
			return
		}
		(*w).first = min((*w).first, s.Start)
		(*w).last = max((*w).last, s.End)
	}
	for _, s := range kids {
		if s.Kind != kindSend {
			continue
		}
		c := verbClass[s.Verb]
		grow(&win[c], s)
		if c == classIterReplica || c == classIterClient {
			grow(&iter, s)
		}
		ivs = append(ivs, [2]int64{s.Start, s.End})
	}
	dur := func(w *window) float64 {
		if w == nil {
			return 0
		}
		return float64(w.last-w.first) / 1e6
	}
	gap := func(from *window, to *window) float64 {
		if from == nil || to == nil || to.first < from.last {
			return 0
		}
		return float64(to.first-from.last) / 1e6
	}
	var p [7]float64
	p[0] = dur(win[classGather])
	p[1] = gap(win[classGather], win[classStart])
	p[2] = dur(win[classStart])
	p[3] = dur(iter)
	before := iter
	if before == nil {
		before = win[classStart]
	}
	p[4] = gap(before, win[classInstall])
	p[5] = dur(win[classInstall])
	p[6] = dur(win[classNotify])
	return p, float64(round.End-round.Start-union(ivs)) / 1e6
}

// union is the total length covered by the intervals.
func union(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, end int64
	first := true
	var start int64
	for _, iv := range ivs {
		if first || iv[0] > end {
			if !first {
				total += end - start
			}
			start, end, first = iv[0], iv[1], false
			continue
		}
		end = max(end, iv[1])
	}
	if !first {
		total += end - start
	}
	return total
}

func algOfVerb(v string) string {
	switch {
	case strings.HasPrefix(v, "replica.localsolve"):
		return "lddm"
	case strings.HasPrefix(v, "replica.admm."):
		return "admm"
	case strings.HasPrefix(v, "replica.cdpsm."):
		return "cdpsm"
	}
	return ""
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// interquartileMean is the mean of the middle half of xs. Per-round
// counts vary with the iteration count, which a mean tracks better than
// the median, but a rare full round (an escalated incremental round sends
// a hundred times the messages) must not decide the figure alone.
func interquartileMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 4
	return mean(s[k : len(s)-k])
}

// quantile is the linearly interpolated q-quantile (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// Print writes the human-readable table, then the result line: one JSON
// object with the metrics of the requested kind.
func (r *Result) Print(out io.Writer, workload string, seed uint64, layer bool, correct bool) error {
	kind := "end-to-end"
	if layer {
		kind = "per-layer"
	}
	fmt.Fprintf(out, "# %s seed %d (%s, %d measured rounds)\n", workload, seed, kind, r.Rounds)
	for _, m := range r.Metrics {
		if m.Layer == layer {
			fmt.Fprintf(out, "%-40s %14.6g %s\n", m.Name, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(out, "%-40s %14.6g %s\n", "error_rate", r.ErrorRate(), "ratio")
	for _, f := range r.Failures {
		fmt.Fprintf(out, "# failure: %s\n", f)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]val{}
	for _, m := range r.Metrics {
		if m.Layer == layer {
			metrics[m.Name] = val{m.Value, m.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}
