package frontend

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"recdb/client"
	"recdb/internal/metrics"
	"recdb/internal/types"
	"recdb/internal/wire"
)

// fakeHandler answers every Query with one row echoing the SQL and every
// Exec with a count of 1; SQL "fail" returns failErr instead, and SQL
// "hold" waits for release first. A canceled context fails the
// statement.
type fakeHandler struct {
	failErr error
	release chan struct{}

	mu      sync.Mutex
	open    int // sessions opened and not yet closed
	drained int
	openAt  int // open sessions when Drained ran
}

type fakeSession struct{ h *fakeHandler }

func (h *fakeHandler) Open() Session {
	h.mu.Lock()
	h.open++
	h.mu.Unlock()
	return fakeSession{h}
}

func (h *fakeHandler) Drained(context.Context) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.drained++
	h.openAt = h.open
	return nil
}

func (s fakeSession) Query(ctx context.Context, sql string) (RowSource, error) {
	switch sql {
	case "fail":
		return nil, s.h.failErr
	case "hold":
		<-s.h.release
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return client.NewRows([]string{"sql"}, "", []types.Row{{types.NewText(sql)}}), nil
}

func (s fakeSession) Exec(_ context.Context, sql string) (int64, error) {
	if sql == "fail" {
		return 0, s.h.failErr
	}
	return 1, nil
}

func (s fakeSession) Close() error {
	s.h.mu.Lock()
	s.h.open--
	s.h.mu.Unlock()
	return nil
}

func startServer(t *testing.T, h Handler, reg *metrics.Registry) string {
	t.Helper()
	s := New(h, Options{}, reg, "test")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return ln.Addr().String()
}

// relayed is an error carrying another server's verdict.
type relayed struct{}

func (relayed) Error() string                { return "relayed" }
func (relayed) WireCode() (code, msg string) { return wire.CodeProtocol, "the shard saw a bad frame" }

func TestErrorCode(t *testing.T) {
	for _, tc := range []struct {
		err      error
		code     string
		contains string
	}{
		{errors.New("no such table"), wire.CodeQuery, "no such table"},
		{fmt.Errorf("scan: %w", context.DeadlineExceeded), wire.CodeTimeout, "deadline"},
		{fmt.Errorf("scan: %w", context.Canceled), wire.CodeCanceled, "canceled"},
		{fmt.Errorf("leg 1: %w", relayed{}), wire.CodeProtocol, "bad frame"},
	} {
		code, msg := errorCode(tc.err)
		if code != tc.code || !strings.Contains(msg, tc.contains) {
			t.Errorf("errorCode(%v) = %q, %q; want code %q", tc.err, code, msg, tc.code)
		}
	}
}

// TestStatementInstruments: each answer's counters are settled before
// the client reads it, failures count by code, and a relayed code the
// front end has no counter for still gets one.
func TestStatementInstruments(t *testing.T) {
	reg := metrics.NewRegistry()
	h := &fakeHandler{failErr: relayed{}}
	c, err := client.Dial(startServer(t, h, reg))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	ctx := context.Background()
	for i := int64(1); i <= 50; i++ {
		rows, err := c.Query(ctx, "SELECT 1")
		if err != nil || rows.Len() != 1 {
			t.Fatalf("query %d: %v", i, err)
		}
		if got, _ := reg.Snapshot().Get("test.queries"); got != i {
			t.Fatalf("after query %d: test.queries = %d", i, got)
		}
	}
	var se *client.ServerError
	if _, err := c.Exec(ctx, "fail"); !errors.As(err, &se) || se.Code != wire.CodeProtocol {
		t.Fatalf("failed exec returned %v, want relayed %q", err, wire.CodeProtocol)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"test.queries": 51, "test.errors.protocol": 1, "test.errors.query": 0,
	} {
		if got, ok := snap.Get(name); !ok || got != want {
			t.Errorf("%s = %d (present=%v), want %d", name, got, ok, want)
		}
	}
}

// TestShutdownRunsDrainedAfterLastSession: Drained runs exactly once,
// after every handler session has been closed.
func TestShutdownRunsDrainedAfterLastSession(t *testing.T) {
	h := &fakeHandler{}
	s := New(h, Options{}, metrics.NewRegistry(), "test")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	for i := 0; i < 3; i++ {
		c, err := client.Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.drained != 1 || h.openAt != 0 {
		t.Fatalf("Drained ran %d times with %d sessions open; want once with none", h.drained, h.openAt)
	}
	if err := s.Shutdown(context.Background()); err == nil {
		t.Fatal("second Shutdown succeeded")
	}
}

// TestCancelQueuedRequest: a Cancel for a request still waiting behind
// another one is not lost; the request starts canceled.
func TestCancelQueuedRequest(t *testing.T) {
	h := &fakeHandler{release: make(chan struct{})}
	conn, err := net.Dial("tcp", startServer(t, h, metrics.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if _, err := conn.Write([]byte(wire.Magic)); err != nil {
		t.Fatal(err)
	}
	if typ, _, _, err := wire.ReadFrame(conn, nil); err != nil || typ != wire.TypeHello {
		t.Fatalf("handshake: type %q err %v", byte(typ), err)
	}
	send := func(typ wire.Type, payload []byte) {
		t.Helper()
		if err := wire.WriteFrame(conn, typ, payload); err != nil {
			t.Fatal(err)
		}
	}
	send(wire.TypeQuery, wire.AppendRequest(nil, wire.Request{ID: 1, SQL: "hold"}))
	send(wire.TypeQuery, wire.AppendRequest(nil, wire.Request{ID: 2, SQL: "SELECT 1"}))
	send(wire.TypeCancel, wire.AppendID(nil, 2))
	// The reader handles frames in order: once the Ping is answered, the
	// Cancel has been seen.
	send(wire.TypePing, wire.AppendID(nil, 3))
	if typ, _, _, err := wire.ReadFrame(conn, nil); err != nil || typ != wire.TypePong {
		t.Fatalf("ping: type %q err %v", byte(typ), err)
	}
	close(h.release)

	terminal := map[uint32]wire.Type{}
	codes := map[uint32]string{}
	for len(terminal) < 2 {
		typ, payload, _, err := wire.ReadFrame(conn, nil)
		if err != nil {
			t.Fatal(err)
		}
		switch typ {
		case wire.TypeComplete:
			c, err := wire.DecodeComplete(payload)
			if err != nil {
				t.Fatal(err)
			}
			terminal[c.ID] = typ
		case wire.TypeError:
			e, err := wire.DecodeError(payload)
			if err != nil {
				t.Fatal(err)
			}
			terminal[e.ID], codes[e.ID] = typ, e.Code
		}
	}
	if terminal[1] != wire.TypeComplete {
		t.Fatalf("held request answered %q, want Complete", byte(terminal[1]))
	}
	if codes[2] != wire.CodeCanceled {
		t.Fatalf("queued request answered %q, want %q", codes[2], wire.CodeCanceled)
	}
}
