package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// TCPNetwork is the live fabric: each node binds a real TCP listener and
// serves one request/response exchange per accepted connection, mirroring
// the paper's socket-per-request server threads. Node names are host:port
// addresses, so any node can message any other by address with no central
// registry.
type TCPNetwork struct {
	// DialTimeout bounds connection establishment. Zero means 5s.
	DialTimeout time.Duration
}

// NewTCPNetwork returns a TCP fabric with default timeouts.
func NewTCPNetwork() *TCPNetwork { return &TCPNetwork{} }

type tcpNode struct {
	listener net.Listener
	handler  Handler
	dialTO   time.Duration

	mu     sync.Mutex
	closed bool
	stop   chan struct{} // closed by Close; ends an accept back-off early
	wg     sync.WaitGroup
}

// Listen binds the given address ("host:port", with ":0" choosing a free
// port) and serves h on every accepted connection. Use Name to learn the
// bound address.
func (n *TCPNetwork) Listen(addr string, h Handler) (Node, error) {
	if h == nil {
		return nil, fmt.Errorf("transport: tcp listen %q: nil handler", addr)
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: tcp listen %q: %w", addr, err)
	}
	to := n.DialTimeout
	if to == 0 {
		to = 5 * time.Second
	}
	return serve(l, h, to), nil
}

// serve starts a node accepting on l; Close stops it.
func serve(l net.Listener, h Handler, dialTO time.Duration) *tcpNode {
	node := &tcpNode{listener: l, handler: h, dialTO: dialTO, stop: make(chan struct{})}
	node.wg.Add(1)
	go node.acceptLoop()
	return node
}

// Accept back-off bounds: a failed Accept other than a closed listener
// (EMFILE when the process is out of file descriptors, ECONNABORTED, ...)
// is retried after a delay doubling from the first to the cap, as
// net/http.Server.Serve does, so one transient failure cannot leave a live
// process unreachable.
const (
	acceptBackoffFirst = 5 * time.Millisecond
	acceptBackoffMax   = time.Second
)

func (nd *tcpNode) acceptLoop() {
	defer nd.wg.Done()
	var delay time.Duration
	for {
		conn, err := nd.listener.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			delay = min(max(2*delay, acceptBackoffFirst), acceptBackoffMax)
			t := time.NewTimer(delay)
			select {
			case <-nd.stop:
				t.Stop()
				return
			case <-t.C:
			}
			continue
		}
		delay = 0
		nd.wg.Add(1)
		go func() {
			defer nd.wg.Done()
			defer conn.Close()
			nd.serveConn(conn)
		}()
	}
}

// serveConn handles request/response exchanges until the peer closes.
func (nd *tcpNode) serveConn(conn net.Conn) {
	for {
		req, err := ReadFrame(conn)
		if err != nil {
			return
		}
		resp, err := nd.handler(context.Background(), req)
		if err != nil {
			resp = Message{Type: "error", From: nd.Name(), Body: mustJSON(err.Error())}
		}
		if err := WriteFrame(conn, resp); err != nil {
			return
		}
	}
}

func mustJSON(s string) []byte {
	// A JSON string literal; strconv.Quote escapes everything JSON needs
	// except a few control sequences that never appear in error text from
	// this module. Marshal via the encoder for full correctness.
	b, err := NewMessage("", "", s)
	if err != nil {
		return []byte(`"error"`)
	}
	return b.Body
}

func (nd *tcpNode) Name() string { return nd.listener.Addr().String() }

// Send dials the peer address, performs one framed request/response
// exchange, and closes the connection. Dial-per-request keeps failure
// handling simple and matches the short-lived coordination exchanges of
// the EDR protocol; file downloads stream over their own connections.
func (nd *tcpNode) Send(ctx context.Context, to string, req Message) (Message, error) {
	nd.mu.Lock()
	closed := nd.closed
	nd.mu.Unlock()
	if closed {
		return Message{}, ErrClosed
	}
	d := net.Dialer{Timeout: nd.dialTO}
	conn, err := d.DialContext(ctx, "tcp", to)
	if err != nil {
		return Message{}, fmt.Errorf("%w: %q: %v", ErrUnknownPeer, to, err)
	}
	defer conn.Close()
	if deadline, ok := ctx.Deadline(); ok {
		if err := conn.SetDeadline(deadline); err != nil {
			return Message{}, fmt.Errorf("transport: set deadline: %w", err)
		}
	}
	req.From = nd.Name()
	if err := WriteFrame(conn, req); err != nil {
		return Message{}, err
	}
	resp, err := ReadFrame(conn)
	if err != nil {
		return Message{}, fmt.Errorf("transport: read response from %q: %w", to, err)
	}
	if resp.Type == "error" {
		var msg string
		if err := resp.DecodeBody(&msg); err != nil {
			msg = "remote handler error"
		}
		return Message{}, fmt.Errorf("transport: remote %q: %s", to, msg)
	}
	return resp, nil
}

func (nd *tcpNode) Close() error {
	nd.mu.Lock()
	if nd.closed {
		nd.mu.Unlock()
		return nil
	}
	nd.closed = true
	nd.mu.Unlock()
	close(nd.stop)
	err := nd.listener.Close()
	nd.wg.Wait()
	return err
}
