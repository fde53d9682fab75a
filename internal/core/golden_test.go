package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"testing"

	"edr/internal/model"
	"edr/internal/telemetry"
	"edr/internal/transport"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/round_golden.json from the current code")

// goldenStep is one scripted round's pinned outputs: a hash of the
// reported assignment, a hash of every replica's installed plan for the
// round, and the messages sent per verb while the step ran.
type goldenStep struct {
	Name          string         `json:"name"`
	Round         int            `json:"round"`
	Replicas      int            `json:"replicas"`
	Cohorts       int            `json:"cohorts,omitempty"`
	Incremental   bool           `json:"incremental,omitempty"`
	DirtyClients  int            `json:"dirty_clients,omitempty"`
	Escalated     int64          `json:"escalated,omitempty"`
	AssignmentSHA string         `json:"assignment_sha"`
	PlansSHA      string         `json:"plans_sha"`
	Msgs          map[string]int `json:"msgs"`
}

// goldenFleet is a fleet on an instrumented in-process fabric, so each
// step can read back its per-verb message counts.
type goldenFleet struct {
	*fleet
	reg *telemetry.Registry
}

func newGoldenFleet(t *testing.T, prices []float64, nClients int, alg Algorithm, mutate func(*ReplicaConfig)) *goldenFleet {
	t.Helper()
	f := &goldenFleet{fleet: &fleet{net: transport.NewInProcNetwork()}, reg: telemetry.NewRegistry()}
	net := transport.NewInstrumented(f.net, f.reg, nil)
	names := make([]string, len(prices))
	for i := range prices {
		names[i] = replicaName(i)
	}
	for i, price := range prices {
		cfg := ReplicaConfig{Replica: model.NewReplica(replicaName(i), price), Algorithm: alg}
		if mutate != nil {
			mutate(&cfg)
		}
		rs, err := NewReplicaServer(net, replicaName(i), names, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rs.Close() })
		f.replicas = append(f.replicas, rs)
	}
	for i := 0; i < nClients; i++ {
		cl, err := NewClient(net, "client"+strconv.Itoa(i+1))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		f.clients = append(f.clients, cl)
	}
	return f
}

var verbCount = regexp.MustCompile(`^edr_transport_messages_total\{.*verb="([^"]*)"\} (\d+)$`)

// msgCounts sums the instrumented message counters per verb.
func (f *goldenFleet) msgCounts(t *testing.T) map[string]int {
	t.Helper()
	var buf bytes.Buffer
	if err := f.reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int)
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if m := verbCount.FindSubmatch(line); m != nil {
			n, _ := strconv.Atoi(string(m[2]))
			out[string(m[1])] += n
		}
	}
	return out
}

// step submits one request per client (demands[i] with latencies lat(i))
// and runs one round from replica 0, recording its pinned outputs.
func (f *goldenFleet) step(t *testing.T, name string, demands []float64, lat func(i int) map[string]float64) goldenStep {
	t.Helper()
	ctx := context.Background()
	before := f.msgCounts(t)
	escBefore := f.replicas[0].Stats.RoundsEscalated.Value()
	for i, cl := range f.clients {
		if err := cl.Submit(ctx, f.replicas[0].Addr(), demands[i], lat(i)); err != nil {
			t.Fatal(err)
		}
	}
	report, err := f.replicas[0].RunRound(ctx)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	msgs := make(map[string]int)
	for verb, n := range f.msgCounts(t) {
		if d := n - before[verb]; d != 0 {
			msgs[verb] = d
		}
	}
	ah := sha256.New()
	for _, row := range report.Assignment {
		for _, v := range row {
			binary.Write(ah, binary.LittleEndian, math.Float64bits(v))
		}
	}
	ph := sha256.New()
	for _, rs := range f.replicas {
		for _, c := range report.ClientAddrs {
			binary.Write(ph, binary.LittleEndian, math.Float64bits(rs.Plan(report.Round, c)))
		}
	}
	return goldenStep{
		Name:          name,
		Round:         report.Round,
		Replicas:      len(report.ReplicaAddrs),
		Cohorts:       report.Cohorts,
		Incremental:   report.Incremental,
		DirtyClients:  report.DirtyClients,
		Escalated:     f.replicas[0].Stats.RoundsEscalated.Value() - escBefore,
		AssignmentSHA: hex.EncodeToString(ah.Sum(nil)),
		PlansSHA:      hex.EncodeToString(ph.Sum(nil)),
		Msgs:          msgs,
	}
}

// goldenSequence runs the scripted fleet sequence: one full round per
// algorithm, a cohorted round, then an incremental fleet through dirty
// rounds (ungrouped and cohorted), a clean commit and a gate escalation.
func goldenSequence(t *testing.T) []goldenStep {
	prices := []float64{1, 10, 5}
	var steps []goldenStep
	for _, alg := range []Algorithm{LDDM, ADMM, CDPSM} {
		f := newGoldenFleet(t, prices, 3, alg, nil)
		steps = append(steps, f.step(t, "full_"+alg.String(), []float64{30, 20, 25},
			func(int) map[string]float64 { return f.uniformLatencies() }))
	}

	cf := newGoldenFleet(t, prices, 9, LDDM, func(cfg *ReplicaConfig) { cfg.CohortMinClients = 2 })
	demands := make([]float64, 9)
	for i := range demands {
		demands[i] = 4 + float64(i)
	}
	steps = append(steps, cf.step(t, "cohort_LDDM", demands, func(i int) map[string]float64 { return classLatencies(cf.fleet, i) }))

	const n = 12
	inc := newGoldenFleet(t, prices, n, LDDM, func(cfg *ReplicaConfig) {
		cfg.Incremental = true
		cfg.CohortMinClients = 2
	})
	lat := func(i int) map[string]float64 { return classLatencies(inc.fleet, i) }
	demands = make([]float64, n)
	for i := range demands {
		demands[i] = 18 + float64(i%4)
	}
	steps = append(steps, inc.step(t, "incremental_base", demands, lat))
	demands[1] *= 1.1 // one dirty client: ungrouped sub-solve
	steps = append(steps, inc.step(t, "incremental_dirty", demands, lat))
	demands[0] *= 1.2 // two dirty clients of one latency class: one cohort
	demands[3] *= 0.8
	steps = append(steps, inc.step(t, "incremental_dirty_cohort", demands, lat))
	steps = append(steps, inc.step(t, "clean_commit", demands, lat))
	// Client 5 can now reach only the cheapest replica, which the clean
	// rows already fill: the dirty sub-instance is infeasible against the
	// residual capacity, so the round escalates to a full solve.
	demands[5] = 60
	only := func(i int) map[string]float64 {
		if i != 5 {
			return lat(i)
		}
		m := lat(i)
		for addr := range m {
			if addr != inc.replicas[0].Addr() {
				m[addr] = 0.005
			}
		}
		return m
	}
	steps = append(steps, inc.step(t, "escalation", demands, only))
	return steps
}

// TestRoundGolden pins every round kind's outputs against a recording
// made before the round tail was shared: assignments and installed plans
// bitwise, message counts per verb exactly — except that an incremental
// dirty round no longer sends a round start to each of its replicas.
func TestRoundGolden(t *testing.T) {
	got := goldenSequence(t)
	path := filepath.Join("testdata", "round_golden.json")
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenStep
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d steps, golden has %d", len(got), len(want))
	}
	for s, w := range want {
		g := got[s]
		if w.Incremental && w.DirtyClients > 0 && w.Escalated == 0 {
			w.Msgs[MsgRoundStart] -= w.Replicas
			if w.Msgs[MsgRoundStart] == 0 {
				delete(w.Msgs, MsgRoundStart)
			}
		}
		wm, gm := w.Msgs, g.Msgs
		w.Msgs, g.Msgs = nil, nil
		if !reflect.DeepEqual(g, w) {
			t.Errorf("step %s:\n got  %+v\n want %+v", w.Name, g, w)
		}
		for verb := range wm {
			if gm[verb] != wm[verb] {
				t.Errorf("step %s: %d %s messages, want %d", w.Name, gm[verb], verb, wm[verb])
			}
		}
		for verb := range gm {
			if _, ok := wm[verb]; !ok {
				t.Errorf("step %s: %d unexpected %s messages", w.Name, gm[verb], verb)
			}
		}
	}
}
