package main

import (
	"fmt"
	"net"
	"sort"

	"edr/internal/core"
	"edr/internal/transport"
)

// Fleet is a live replica ring plus its clients in this process, all on
// one traced fabric. replicas[j] serves the instance's column j and
// clients[i] its row i; addresses sort in index order, so the fleet's
// row and column order (RoundSpec sorts both by address) is the
// instance's own.
type Fleet struct {
	tr       *Tracer
	replicas []*core.ReplicaServer
	clients  []*core.Client
	addrs    []string             // replica addresses, column order
	lat      []map[string]float64 // client i's measured latencies by replica address
}

// Contact is the replica every client submits to and the round initiator.
func (f *Fleet) Contact() *core.ReplicaServer { return f.replicas[0] }

// NewFleet brings up w's fleet, retrying on fresh ports when another
// socket took a reserved loopback port before it was bound.
func NewFleet(w Workload, t *Traffic, spans bool) (*Fleet, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var f *Fleet
		if f, err = newFleet(w, t, spans); err == nil || !w.TCP {
			return f, err
		}
	}
	return nil, err
}

// newFleet brings up w's fleet for traffic t on a fresh traced fabric
// and starts the ring heartbeats at their defaults (500 ms, suspect after
// 3 misses).
func newFleet(w Workload, t *Traffic, spans bool) (*Fleet, error) {
	var inner transport.Network
	var replicaAddrs, clientAddrs []string
	if w.TCP {
		inner = transport.NewTCPNetwork()
		addrs, err := loopbackAddrs(w.Replicas + w.Clients)
		if err != nil {
			return nil, err
		}
		// Both halves stay in ascending order.
		replicaAddrs, clientAddrs = addrs[:w.Replicas], addrs[w.Replicas:]
	} else {
		inner = transport.NewInProcNetwork()
		for j := 0; j < w.Replicas; j++ {
			replicaAddrs = append(replicaAddrs, fmt.Sprintf("r%03d", j))
		}
		for i := 0; i < w.Clients; i++ {
			clientAddrs = append(clientAddrs, fmt.Sprintf("c%06d", i))
		}
	}
	f := &Fleet{
		tr:    NewTracer(inner, spans),
		addrs: replicaAddrs,
	}
	for j, addr := range replicaAddrs {
		rep := t.base.System.Replicas[j]
		rep.Name = addr
		cfg := core.ReplicaConfig{Replica: rep, Algorithm: w.Algorithm, BytesPerMB: bytesPerMB}
		if w.Steady {
			cfg.CohortMinClients = 2
			cfg.Incremental = true
		}
		rs, err := core.NewReplicaServer(f.tr, addr, replicaAddrs, cfg)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("replica %d: %w", j, err)
		}
		f.replicas = append(f.replicas, rs)
	}
	for i, addr := range clientAddrs {
		cl, err := core.NewClient(f.tr, addr)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("client %d: %w", i, err)
		}
		f.clients = append(f.clients, cl)
		lat := make(map[string]float64, w.Replicas)
		for j, ra := range replicaAddrs {
			lat[ra] = t.base.Latency[i][j]
		}
		f.lat = append(f.lat, lat)
	}
	// Heartbeats start once every reserved port is bound, so no outgoing
	// connection can take one as its source port first.
	for _, rs := range f.replicas {
		rs.Monitor().Start()
	}
	return f, nil
}

// Close stops the heartbeats and releases every endpoint; each Close
// waits for the node's serving goroutines.
func (f *Fleet) Close() {
	for _, rs := range f.replicas {
		rs.Close()
	}
	for _, cl := range f.clients {
		cl.Close()
	}
}

// loopbackAddrs reserves n free loopback ports and returns them as
// addresses in ascending order. Ephemeral ports are all five digits, so
// string order is port order and every address has the same length (body
// byte counts then repeat exactly for a seed).
func loopbackAddrs(n int) ([]string, error) {
	ls := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	ports := make([]int, 0, n)
	for len(ls) < n {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve loopback port: %w", err)
		}
		port := l.Addr().(*net.TCPAddr).Port
		if port < 10000 {
			l.Close() // keep every address the same length
			continue
		}
		ls = append(ls, l)
		ports = append(ports, port)
	}
	sort.Ints(ports)
	addrs := make([]string, n)
	for i, p := range ports {
		addrs[i] = fmt.Sprintf("127.0.0.1:%d", p)
	}
	return addrs, nil
}
