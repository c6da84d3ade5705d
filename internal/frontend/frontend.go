// Package frontend is the serving tier's one network front end: the
// wire-protocol session manager both recdb-server (internal/server) and
// the sharding router (internal/shard) run, each as a small Handler that
// executes statements.
//
// Each accepted connection becomes a session with a server-assigned id.
// A session runs two goroutines: a reader that decodes frames (answering
// Ping and Cancel immediately, even while a statement runs) and a worker
// that executes Query/Exec requests one at a time in arrival order and
// streams the response frames back. Per-query timeouts and client Cancel
// frames travel as context cancellation into the handler, so an
// interrupted statement stops instead of running to completion for
// nobody.
//
// Backpressure is a hard connection limit: once MaxConns sessions are
// live, further connections are answered with a typed "busy" Error frame
// and closed, and a client pipelining more than 16 requests on one
// session gets "busy" answers instead of an unbounded queue. Shutdown
// drains: the listener closes, live statements run to completion,
// queued-but-unstarted requests are answered "shutdown", and once the
// last session ends the handler's Drained hook runs.
//
// A panic inside one session's statement is recovered, answered with an
// "internal" Error frame, and closes only that session; the server and
// its other sessions keep running.
package frontend

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"recdb/internal/metrics"
	"recdb/internal/types"
	"recdb/internal/wire"
)

// Options tunes a Server. The zero value serves with the defaults noted
// on each field.
type Options struct {
	// MaxConns caps live sessions; further connections are rejected with
	// a "busy" Error frame (0 = 64).
	MaxConns int
	// QueryTimeout bounds each statement's execution. A request's own
	// TimeoutMillis tightens but never loosens it (0 = no server bound).
	QueryTimeout time.Duration
	// IdleTimeout closes a session with no request in flight and no
	// bytes arriving (0 = 5 minutes).
	IdleTimeout time.Duration
	// WriteTimeout bounds each response flush (0 = 30 seconds).
	WriteTimeout time.Duration
	// Name is the server string sent in the Hello frame (default "recdb").
	Name string
	// Logf receives connection-level diagnostics (nil = silent).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.MaxConns <= 0 {
		o.MaxConns = 64
	}
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = 5 * time.Minute
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 30 * time.Second
	}
	if o.Name == "" {
		o.Name = "recdb"
	}
	return o
}

// RowSource is a Query answer: its columns, the planner strategy ("" for
// plain queries), and the rows in order. *recdb.Rows and *client.Rows
// both satisfy it.
type RowSource interface {
	Columns() []string
	Strategy() string
	Next() bool
	Row() types.Row
}

// Session executes one connection's statements. The front end calls
// Query and Exec from a single goroutine, one statement at a time, and
// Close once after the last one.
type Session interface {
	Query(ctx context.Context, sql string) (RowSource, error)
	Exec(ctx context.Context, sql string) (int64, error)
	Close() error
}

// Handler is what a Server serves.
type Handler interface {
	// Open starts the state for one new connection.
	Open() Session
	// Drained runs during Shutdown, after the last session has ended.
	Drained(ctx context.Context) error
}

// WireCoder is an error that carries its own wire code and message — a
// verdict relayed from another server — instead of the default mapping
// (context deadline → "timeout", cancellation → "canceled", anything
// else → "query").
type WireCoder interface {
	WireCode() (code, message string)
}

// errorCode maps a statement failure to its wire code and message.
func errorCode(err error) (code, msg string) {
	var wc WireCoder
	switch {
	case errors.As(err, &wc):
		return wc.WireCode()
	case errors.Is(err, context.DeadlineExceeded):
		return wire.CodeTimeout, err.Error()
	case errors.Is(err, context.Canceled):
		return wire.CodeCanceled, err.Error()
	}
	return wire.CodeQuery, err.Error()
}

// statementCodes are the wire codes a statement can be answered with;
// their error counters exist from the start so they export as zero.
var statementCodes = []string{
	wire.CodeQuery, wire.CodeTimeout, wire.CodeCanceled, wire.CodeBusy,
	wire.CodeShutdown, wire.CodeShardDown, wire.CodeInternal,
}

// instruments is the front end's slice of its caller's registry, every
// name under the caller's prefix ("server", "shard").
type instruments struct {
	reg            *metrics.Registry
	prefix         string
	connsActive    *metrics.Gauge
	sessionsOpened *metrics.Counter
	sessionsClosed *metrics.Counter
	queries        *metrics.Counter   // statements executed, failed ones included
	queryNs        *metrics.Histogram // their latency, up to the answer's final flush
	bytesIn        *metrics.Counter
	bytesOut       *metrics.Counter
	rejectedBusy   *metrics.Counter // connections refused at MaxConns
	panics         *metrics.Counter
	errs           map[string]*metrics.Counter // <prefix>.errors.<code>; read-only after construction
}

func newInstruments(r *metrics.Registry, prefix string) *instruments {
	m := &instruments{
		reg:            r,
		prefix:         prefix,
		connsActive:    r.Gauge(prefix + ".conns_active"),
		sessionsOpened: r.Counter(prefix + ".sessions_opened"),
		sessionsClosed: r.Counter(prefix + ".sessions_closed"),
		queries:        r.Counter(prefix + ".queries"),
		queryNs:        r.Histogram(prefix + ".query_ns"),
		bytesIn:        r.Counter(prefix + ".bytes_in"),
		bytesOut:       r.Counter(prefix + ".bytes_out"),
		rejectedBusy:   r.Counter(prefix + ".rejected_busy"),
		panics:         r.Counter(prefix + ".panics"),
		errs:           make(map[string]*metrics.Counter, len(statementCodes)),
	}
	for _, code := range statementCodes {
		m.errs[code] = r.Counter(prefix + ".errors." + code)
	}
	return m
}

// failed counts one statement answered with an Error frame.
func (m *instruments) failed(code string) {
	c, ok := m.errs[code]
	if !ok { // a relayed code outside the statement set
		c = m.reg.Counter(m.prefix + ".errors." + code)
	}
	c.Inc()
}

// executed records one statement that ran; code is "" on success.
func (m *instruments) executed(start time.Time, code string) {
	m.queries.Inc()
	m.queryNs.ObserveSince(start)
	if code != "" {
		m.failed(code)
	}
}

// Server accepts connections and runs a session per connection against
// its Handler.
type Server struct {
	h      Handler
	opts   Options
	prefix string
	m      *instruments

	mu       sync.Mutex
	ln       net.Listener
	sessions map[uint64]*session
	nextSID  uint64
	draining bool

	wg sync.WaitGroup
}

// New builds a Server for h. Its instruments register in reg under
// prefix, which also prefixes the errors Serve and Shutdown return.
func New(h Handler, opts Options, reg *metrics.Registry, prefix string) *Server {
	return &Server{
		h:        h,
		opts:     opts.withDefaults(),
		prefix:   prefix,
		m:        newInstruments(reg, prefix),
		sessions: make(map[uint64]*session),
	}
}

// Serve accepts connections on ln until it fails or Shutdown closes it.
// It returns nil after a Shutdown, the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		_ = ln.Close()
		return fmt.Errorf("%s: already shut down", s.prefix)
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return fmt.Errorf("%s: accept: %w", s.prefix, err)
		}
		s.dispatch(conn)
	}
}

// Addr returns the listening address ("" before Serve).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// dispatch admits conn as a session or rejects it with a typed error
// frame when the server is at capacity or draining.
func (s *Server) dispatch(conn net.Conn) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.rejectConn(conn, wire.CodeShutdown, s.shuttingDown())
		return
	}
	if len(s.sessions) >= s.opts.MaxConns {
		s.mu.Unlock()
		s.m.rejectedBusy.Inc()
		s.rejectConn(conn, wire.CodeBusy,
			fmt.Sprintf("%s at its %d-connection limit", s.opts.Name, s.opts.MaxConns))
		return
	}
	s.nextSID++
	sess := newSession(s, s.nextSID, conn)
	s.sessions[sess.id] = sess
	s.mu.Unlock()

	s.m.connsActive.Add(1)
	s.m.sessionsOpened.Inc()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		sess.run()
		s.mu.Lock()
		delete(s.sessions, sess.id)
		s.mu.Unlock()
		s.m.connsActive.Add(-1)
		s.m.sessionsClosed.Inc()
	}()
}

// rejectConn answers a connection the server will not admit, off the
// accept loop so a slow or dead peer cannot stall other accepts.
func (s *Server) rejectConn(conn net.Conn, code, msg string) {
	go func() {
		_ = conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
		_ = wire.WriteFrame(conn, wire.TypeError,
			wire.AppendError(nil, wire.ErrorMsg{Code: code, Message: msg}))
		_ = conn.Close()
	}()
}

// Shutdown drains the server: stop accepting, let in-flight statements
// finish, answer queued-but-unstarted requests with "shutdown", wait for
// every session to end, then run the handler's Drained hook. If ctx
// expires first, remaining connections are closed hard (Drained still
// runs) and ctx's error is returned; an error from Drained wins.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	ln := s.ln
	live := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		live = append(live, sess)
	}
	s.mu.Unlock()
	if already {
		return fmt.Errorf("%s: already shut down", s.prefix)
	}
	if ln != nil {
		_ = ln.Close()
	}
	for _, sess := range live {
		sess.beginDrain()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		drainErr = fmt.Errorf("%s: drain interrupted: %w", s.prefix, ctx.Err())
		for _, sess := range live {
			sess.closeConn()
		}
		<-done
	}
	if err := s.h.Drained(ctx); err != nil {
		return err
	}
	return drainErr
}

func (s *Server) shuttingDown() string { return s.opts.Name + " is shutting down" }

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}
