package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func newTCPPair(t *testing.T, h Handler) (server, client Node) {
	t.Helper()
	net := NewTCPNetwork()
	server, err := net.Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	client, err = net.Listen("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return server, client
}

func TestTCPSendReceive(t *testing.T) {
	server, client := newTCPPair(t, echoHandler)
	req, _ := NewMessage("ping", "", map[string]int{"k": 3})
	resp, err := client.Send(context.Background(), server.Name(), req)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]int
	if err := resp.DecodeBody(&body); err != nil || body["k"] != 3 {
		t.Fatalf("resp body = %s err = %v", resp.Body, err)
	}
}

func TestTCPSendStampsFromWithAddress(t *testing.T) {
	var gotFrom string
	var mu sync.Mutex
	server, client := newTCPPair(t, func(ctx context.Context, req Message) (Message, error) {
		mu.Lock()
		gotFrom = req.From
		mu.Unlock()
		return Message{Type: "ok"}, nil
	})
	if _, err := client.Send(context.Background(), server.Name(), Message{Type: "ping"}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if gotFrom != client.Name() {
		t.Fatalf("From = %q, want client address %q", gotFrom, client.Name())
	}
}

func TestTCPHandlerErrorPropagates(t *testing.T) {
	server, client := newTCPPair(t, func(ctx context.Context, req Message) (Message, error) {
		return Message{}, fmt.Errorf("storage exploded")
	})
	_, err := client.Send(context.Background(), server.Name(), Message{Type: "ping"})
	if err == nil || !strings.Contains(err.Error(), "storage exploded") {
		t.Fatalf("err = %v, want remote error text", err)
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	_, client := newTCPPair(t, echoHandler)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	// Port 1 on localhost: connection refused.
	_, err := client.Send(ctx, "127.0.0.1:1", Message{Type: "ping"})
	if !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("err = %v, want ErrUnknownPeer", err)
	}
}

func TestTCPClosedNodeRefusesSend(t *testing.T) {
	server, client := newTCPPair(t, echoHandler)
	client.Close()
	if _, err := client.Send(context.Background(), server.Name(), Message{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestTCPCloseStopsServing(t *testing.T) {
	server, client := newTCPPair(t, echoHandler)
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := client.Send(ctx, server.Name(), Message{Type: "ping"}); err == nil {
		t.Fatal("send to closed server succeeded")
	}
	// Double close is fine.
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
}

// flakyListener fails its first Accept with a non-closed error, then hands
// out conns, then reports net.ErrClosed once closed.
type flakyListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
	failed bool // touched only by the accept loop
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if !l.failed {
		l.failed = true
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE}
	}
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *flakyListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *flakyListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }

func TestTCPAcceptSurvivesTransientError(t *testing.T) {
	l := &flakyListener{conns: make(chan net.Conn), closed: make(chan struct{})}
	node := serve(l, echoHandler, time.Second)
	peer, conn := net.Pipe()
	defer peer.Close()
	if err := peer.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	select {
	case l.conns <- conn:
	case <-time.After(5 * time.Second):
		t.Fatal("accept loop stopped after a transient Accept error")
	}
	req, _ := NewMessage("ping", "peer", "hello")
	if err := WriteFrame(peer, req); err != nil {
		t.Fatal(err)
	}
	resp, err := ReadFrame(peer)
	if err != nil {
		t.Fatal(err)
	}
	var body string
	if err := resp.DecodeBody(&body); err != nil || body != "hello" {
		t.Fatalf("resp body = %s err = %v", resp.Body, err)
	}
	peer.Close() // ends serveConn so Close can wait for it
	done := make(chan error, 1)
	go func() { done <- node.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not stop the accept loop")
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	var mu sync.Mutex
	count := 0
	server, _ := newTCPPair(t, func(ctx context.Context, req Message) (Message, error) {
		mu.Lock()
		count++
		mu.Unlock()
		return Message{Type: "ok"}, nil
	})
	net := NewTCPNetwork()
	const workers, each = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			node, err := net.Listen("127.0.0.1:0", echoHandler)
			if err != nil {
				errs <- err
				return
			}
			defer node.Close()
			for j := 0; j < each; j++ {
				if _, err := node.Send(context.Background(), server.Name(), Message{Type: "ping"}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if count != workers*each {
		t.Fatalf("server saw %d requests, want %d", count, workers*each)
	}
}

func TestTCPLargePayload(t *testing.T) {
	server, client := newTCPPair(t, echoHandler)
	big := make([]float64, 50000)
	for i := range big {
		big[i] = float64(i) * 1.5
	}
	req, err := NewMessage("bulk", "", big)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Send(context.Background(), server.Name(), req)
	if err != nil {
		t.Fatal(err)
	}
	var out []float64
	if err := resp.DecodeBody(&out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(big) || out[49999] != big[49999] {
		t.Fatal("large payload corrupted")
	}
}
