package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"edr/internal/admm"
	"edr/internal/cdpsm"
	"edr/internal/core"
	"edr/internal/engine"
	"edr/internal/lddm"
	"edr/internal/membership"
	"edr/internal/ring"
	"edr/internal/transport"
)

// Verb classes: every fleet RPC falls into one, by its message type.
const (
	classGather = iota
	classStart
	classIterReplica
	classIterClient
	classInstall
	classNotify
	classPull
	classSubmit
	classDownload
	classRing
	classOther
	numClasses
)

var classNames = [numClasses]string{
	"gather", "start", "iterate_replica", "iterate_client", "install",
	"notify", "pull", "submit", "download", "ring", "other",
}

// verbs interns every message type the fleet sends, so a span stores a
// small index instead of retaining the decoded string.
var verbs = []string{
	core.MsgReplicaInfo, core.MsgRoundStart,
	lddm.MsgLocalSolve, admm.MsgProx, cdpsm.MsgStep, cdpsm.MsgEstimate, cdpsm.MsgCommit,
	engine.MsgMuUpdate,
	core.MsgAssign,
	core.MsgAllocation, core.MsgCohortAllocation, core.MsgCohortDuals,
	core.MsgAllocationPull, core.MsgClientRequest, core.MsgDownload,
	ring.HeartbeatType, ring.DeathType, membership.EpochType, membership.ProposeType,
}

var (
	verbIndex = map[string]uint8{}
	verbClass []int
)

func init() {
	for i, v := range verbs {
		verbIndex[v] = uint8(i)
	}
	verbs = append(verbs, "other")
	verbClass = make([]int, len(verbs))
	for i, v := range verbs {
		verbClass[i] = classify(v)
	}
}

func classify(verb string) int {
	switch verb {
	case core.MsgReplicaInfo:
		return classGather
	case core.MsgRoundStart:
		return classStart
	case lddm.MsgLocalSolve, admm.MsgProx, cdpsm.MsgStep, cdpsm.MsgEstimate, cdpsm.MsgCommit:
		return classIterReplica
	case engine.MsgMuUpdate:
		return classIterClient
	case core.MsgAssign:
		return classInstall
	case core.MsgAllocation, core.MsgCohortAllocation, core.MsgCohortDuals:
		return classNotify
	case core.MsgAllocationPull:
		return classPull
	case core.MsgClientRequest:
		return classSubmit
	case core.MsgDownload:
		return classDownload
	case ring.HeartbeatType, ring.DeathType, membership.EpochType, membership.ProposeType:
		return classRing
	}
	return classOther
}

func verbOf(t string) uint8 {
	if i, ok := verbIndex[t]; ok {
		return i
	}
	return uint8(len(verbs) - 1)
}

// coordClasses are the round-protocol RPCs coord_*_per_round counts:
// every fleet RPC except submits, downloads and the timer-driven ring
// heartbeats.
var coordClasses = []int{classGather, classStart, classIterReplica, classIterClient, classInstall, classNotify, classPull}

// Span kinds.
const (
	kindSend   uint8 = iota // one Node.Send, timed at the sender
	kindHandle              // one handler invocation, timed at the receiver
	kindCall                // one call the benchmark makes into core, opt, cohort or central
)

// Span is one timed interval. Node and Peer index Tracer.names; Verb
// indexes verbs for send and handle spans and calls for call spans.
type Span struct {
	ID, Parent uint32
	Kind, Verb uint8
	Node, Peer uint16
	Round      int32
	Bytes      int32
	Start, End int64 // ns since the tracer's epoch
}

// Benchmark call names (Span.Verb of kindCall spans).
const (
	callRunRound = iota
	callSubmit
	callWaitAllocation
	callWaitSteady
	callDownload
	callCheckFeasible
	callGroup
	callCentral
)

var calls = []string{
	"core.ReplicaServer.RunRound", "core.Client.Submit", "core.Client.WaitAllocation",
	"core.Client.WaitAllocationSteady", "core.Client.Download",
	"opt.CheckFeasible", "cohort.Group", "central.Solver.Solve",
}

const spanChunk = 1 << 14

// Counters are the clock-free per-class tallies that stay on in the
// end-to-end runs.
type Counters struct {
	Msgs  [numClasses]int64
	Bytes [numClasses]int64
}

// Sub returns c - o.
func (c Counters) Sub(o Counters) Counters {
	for i := range c.Msgs {
		c.Msgs[i] -= o.Msgs[i]
		c.Bytes[i] -= o.Bytes[i]
	}
	return c
}

// Coord sums the round-protocol classes.
func (c Counters) Coord() (msgs, bytes int64) {
	for _, k := range coordClasses {
		msgs += c.Msgs[k]
		bytes += c.Bytes[k]
	}
	return msgs, bytes
}

// Tracer is the benchmark's transport.Network decorator. It always counts
// messages and body bytes (both directions) per verb class, remembers
// which clients received an allocation push and when, and which round the
// fleet last installed. With spans on it also records one span per Send,
// one per handler invocation, and one per benchmark call, keeping them in
// memory until WriteSpans.
type Tracer struct {
	inner transport.Network
	spans bool
	epoch time.Time

	msgs, bytes [numClasses]atomic.Int64
	installed   atomic.Int64 // highest round id seen on replica.assign

	mu       sync.Mutex
	pushed   map[string]time.Time // client → arrival of its last allocation push
	names    map[string]uint16
	nameList []string
	chunks   [][]Span
	inflight map[flightKey]uint32 // TCP handlers find their parent send here
	nextID   uint32
}

type flightKey struct {
	from, to string
	verb     uint8
}

type spanCtxKey struct{}

// NewTracer wraps inner. spans turns on span recording.
func NewTracer(inner transport.Network, spans bool) *Tracer {
	return &Tracer{
		inner:    inner,
		spans:    spans,
		epoch:    time.Now(),
		pushed:   make(map[string]time.Time),
		names:    make(map[string]uint16),
		inflight: make(map[flightKey]uint32),
	}
}

// Counters snapshots the per-class tallies.
func (t *Tracer) Counters() Counters {
	var c Counters
	for i := range c.Msgs {
		c.Msgs[i] = t.msgs[i].Load()
		c.Bytes[i] = t.bytes[i].Load()
	}
	return c
}

// InstalledRound is the highest round id any replica.assign carried.
func (t *Tracer) InstalledRound() int { return int(t.installed.Load()) }

// TakePushed returns and clears the allocation-push record.
func (t *Tracer) TakePushed() map[string]time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.pushed
	t.pushed = make(map[string]time.Time, len(p))
	return p
}

func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *Tracer) nameID(name string) uint16 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nameIDLocked(name)
}

func (t *Tracer) nameIDLocked(name string) uint16 {
	if id, ok := t.names[name]; ok {
		return id
	}
	id := uint16(len(t.nameList))
	t.names[name] = id
	t.nameList = append(t.nameList, name)
	return id
}

// newID reserves a span id; 0 means "no span".
func (t *Tracer) newID() uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

func (t *Tracer) record(s Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.chunks)
	if n == 0 || len(t.chunks[n-1]) == spanChunk {
		t.chunks = append(t.chunks, make([]Span, 0, spanChunk))
		n++
	}
	t.chunks[n-1] = append(t.chunks[n-1], s)
}

// SpanBytes is the heap the span store holds, so heap-growth figures can
// leave it out.
func (t *Tracer) SpanBytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int64(len(t.chunks)) * spanChunk * int64(unsafe.Sizeof(Span{}))
}

// Spans returns every recorded span in recording order.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	for _, c := range t.chunks {
		out = append(out, c...)
	}
	return out
}

// Call opens a span around one benchmark call into the program and
// returns the context to make the call with (its sends parent to the
// span) and the function that closes it. With spans off it returns ctx
// unchanged and a no-op.
func (t *Tracer) Call(ctx context.Context, call int, round int) (context.Context, func()) {
	if !t.spans {
		return ctx, func() {}
	}
	id := t.newID()
	parent, _ := ctx.Value(spanCtxKey{}).(uint32)
	start := t.now()
	return context.WithValue(ctx, spanCtxKey{}, id), func() {
		t.record(Span{ID: id, Parent: parent, Kind: kindCall, Verb: uint8(call), Round: int32(round), Start: start, End: t.now()})
	}
}

// roundOf extracts the round id a message carries: binary bodies lead
// with it, JSON bodies name it "round". Bodies without one yield 0.
func roundOf(m transport.Message) int {
	if len(m.Bin) >= 4 {
		if r, err := transport.BinaryRound(m); err == nil {
			return r
		}
		return 0
	}
	if len(m.Body) == 0 {
		return 0
	}
	// Every round-bearing body marshals its round first; read it off the
	// prefix instead of decoding a body that may carry a 10k-entry column.
	if rest, ok := bytes.CutPrefix(m.Body, []byte(`{"round":`)); ok {
		n := 0
		for _, b := range rest {
			if b < '0' || b > '9' {
				break
			}
			n = 10*n + int(b-'0')
		}
		return n
	}
	var hdr struct {
		Round int `json:"round"`
	}
	if json.Unmarshal(m.Body, &hdr) != nil {
		return 0
	}
	return hdr.Round
}

// Listen registers a traced node on the inner fabric.
func (t *Tracer) Listen(name string, h transport.Handler) (transport.Node, error) {
	nd := &tracedNode{t: t}
	node, err := t.inner.Listen(name, nd.handle(h))
	if err != nil {
		return nil, err
	}
	nd.inner = node
	nd.name = node.Name()
	nd.id = t.nameID(nd.name)
	return nd, nil
}

type tracedNode struct {
	t     *Tracer
	inner transport.Node
	name  string
	id    uint16
}

func (nd *tracedNode) Name() string { return nd.name }

func (nd *tracedNode) Close() error { return nd.inner.Close() }

func (nd *tracedNode) Send(ctx context.Context, to string, req transport.Message) (transport.Message, error) {
	t := nd.t
	v := verbOf(req.Type)
	if req.Type == core.MsgAssign {
		for r := int64(roundOf(req)); ; {
			cur := t.installed.Load()
			if r <= cur || t.installed.CompareAndSwap(cur, r) {
				break
			}
		}
	}
	var span Span
	key := flightKey{nd.name, to, v}
	if t.spans {
		span = Span{ID: t.newID(), Kind: kindSend, Verb: v, Node: nd.id, Round: int32(roundOf(req))}
		span.Parent, _ = ctx.Value(spanCtxKey{}).(uint32)
		t.mu.Lock()
		t.inflight[key] = span.ID
		span.Peer = t.nameIDLocked(to)
		t.mu.Unlock()
		ctx = context.WithValue(ctx, spanCtxKey{}, span.ID)
		span.Start = t.now()
	}
	resp, err := nd.inner.Send(ctx, to, req)
	n := req.BodyLen() + resp.BodyLen()
	t.msgs[verbClass[v]].Add(1)
	t.bytes[verbClass[v]].Add(int64(n))
	if t.spans {
		span.End, span.Bytes = t.now(), int32(n)
		t.mu.Lock()
		if t.inflight[key] == span.ID {
			delete(t.inflight, key)
		}
		t.mu.Unlock()
		t.record(span)
	}
	return resp, err
}

// handle wraps a node's handler: allocation pushes are stamped on
// arrival (alloc_ms needs it), and with spans on every invocation is a
// span parented to the send that caused it — through the context on the
// in-process fabric, through the in-flight table on TCP.
func (nd *tracedNode) handle(h transport.Handler) transport.Handler {
	return func(ctx context.Context, req transport.Message) (transport.Message, error) {
		t := nd.t
		v := verbOf(req.Type)
		var span Span
		if t.spans {
			span = Span{ID: t.newID(), Kind: kindHandle, Verb: v, Node: nd.id, Round: int32(roundOf(req))}
			span.Parent, _ = ctx.Value(spanCtxKey{}).(uint32)
			t.mu.Lock()
			if span.Parent == 0 {
				span.Parent = t.inflight[flightKey{req.From, nd.name, v}]
			}
			span.Peer = t.nameIDLocked(req.From)
			t.mu.Unlock()
			ctx = context.WithValue(ctx, spanCtxKey{}, span.ID)
			span.Start = t.now()
		}
		resp, err := h(ctx, req)
		if err == nil && (req.Type == core.MsgAllocation || req.Type == core.MsgCohortAllocation) {
			t.stampPush(nd.name)
		}
		if t.spans {
			span.End, span.Bytes = t.now(), int32(req.BodyLen()+resp.BodyLen())
			t.record(span)
		}
		return resp, err
	}
}

func (t *Tracer) stampPush(client string) {
	now := time.Now()
	t.mu.Lock()
	t.pushed[client] = now
	t.mu.Unlock()
}

// WriteSpans writes every span as one CSV line, gzip-compressed, to
// path (a traced run holds about a million spans).
func (t *Tracer) WriteSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "id,parent,kind,name,node,peer,round,bytes,start_ns,end_ns")
	kinds := [...]string{"send", "handle", "call"}
	t.mu.Lock()
	names := append([]string(nil), t.nameList...)
	t.mu.Unlock()
	for _, s := range t.Spans() {
		var name, node, peer string
		if s.Kind == kindCall {
			name = calls[s.Verb]
		} else {
			name, node, peer = verbs[s.Verb], names[s.Node], names[s.Peer]
		}
		fmt.Fprintf(w, "%d,%d,%s,%s,%s,%s,%d,%d,%d,%d\n",
			s.ID, s.Parent, kinds[s.Kind], name, node, peer, s.Round, s.Bytes, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}
