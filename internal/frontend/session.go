package frontend

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"recdb/internal/metrics"
	"recdb/internal/types"
	"recdb/internal/wire"
)

// pipelineDepth bounds how many decoded requests may sit between the
// reader and the worker; a client pipelining past it gets "busy" answers
// instead of growing an unbounded queue.
const pipelineDepth = 16

// request is one decoded Query or Exec frame awaiting execution.
type request struct {
	kind wire.Type
	req  wire.Request
}

// session is one client connection. The reader goroutine decodes frames
// — answering Ping and Cancel immediately — and hands Query/Exec
// requests to the worker goroutine, which executes them one at a time
// and streams responses. mu guards the request-lifecycle state shared
// between the two.
type session struct {
	srv  *Server
	id   uint64
	conn net.Conn
	in   *countReader
	out  *frameWriter
	reqs chan request

	mu        sync.Mutex
	pending   int                // requests enqueued but not yet answered
	queued    map[uint32]bool    // ids enqueued but not yet begun -> canceled while waiting
	curID     uint32             // id of the statement now executing
	curCancel context.CancelFunc // interrupts it; nil between statements
	draining  bool
}

func newSession(srv *Server, id uint64, conn net.Conn) *session {
	return &session{
		srv:    srv,
		id:     id,
		conn:   conn,
		in:     &countReader{r: conn, c: srv.m.bytesIn},
		out:    newFrameWriter(conn, srv.m.bytesOut, srv.opts.WriteTimeout),
		reqs:   make(chan request, pipelineDepth),
		queued: make(map[uint32]bool, pipelineDepth),
	}
}

// run drives the session to completion: handshake, then reader and
// worker until the connection ends.
func (s *session) run() {
	defer s.closeConn()
	hs := s.srv.h.Open()
	// Closing the handler session releases per-connection state (an
	// engine session rolls back a transaction a dropped client left
	// open). It runs after the worker, hs's only other user, has exited.
	defer func() { _ = hs.Close() }()
	if err := s.handshake(); err != nil {
		s.srv.logf("session %d: %v", s.id, err)
		return
	}
	done := make(chan struct{})
	go func() {
		for r := range s.reqs {
			s.serve(hs, r)
		}
		close(done)
	}()
	s.reader()
	// The client is gone (or broke protocol): stop the running statement
	// rather than finishing work nobody will read.
	s.cancelCurrent()
	close(s.reqs)
	<-done
}

// handshake consumes the client's magic preamble and answers Hello.
func (s *session) handshake() error {
	_ = s.conn.SetReadDeadline(time.Now().Add(s.srv.opts.IdleTimeout))
	var magic [len(wire.Magic)]byte
	if _, err := io.ReadFull(s.in, magic[:]); err != nil {
		return fmt.Errorf("reading magic: %w", err)
	}
	if string(magic[:]) != wire.Magic {
		s.protocolFault(errors.New("bad protocol magic"))
		return errors.New("bad protocol magic")
	}
	return s.out.write(wire.TypeHello,
		wire.AppendHello(nil, wire.Hello{SessionID: s.id, Server: s.srv.opts.Name}), true)
}

// reader decodes frames until the connection ends or breaks protocol.
// The idle deadline only fires a disconnect when no request is pending
// and no partial frame has arrived; while a statement runs, a quiet
// client is expected and the deadline just re-arms.
func (s *session) reader() {
	buf := make([]byte, 512)
	for {
		_ = s.conn.SetReadDeadline(time.Now().Add(s.srv.opts.IdleTimeout))
		before := s.in.n
		t, payload, nbuf, err := wire.ReadFrame(s.in, buf)
		buf = nbuf
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && s.in.n == before && s.hasPending() {
				continue
			}
			var fe *wire.FrameError
			if errors.As(err, &fe) {
				s.protocolFault(fe)
			}
			return
		}
		switch t {
		case wire.TypePing:
			id, err := wire.DecodeID(payload)
			if err != nil {
				s.protocolFault(err)
				return
			}
			_ = s.out.write(wire.TypePong, wire.AppendID(nil, id), true)
		case wire.TypeCancel:
			id, err := wire.DecodeID(payload)
			if err != nil {
				s.protocolFault(err)
				return
			}
			s.cancelRequest(id)
		case wire.TypeQuery, wire.TypeExec:
			req, err := wire.DecodeRequest(payload)
			if err != nil {
				s.protocolFault(err)
				return
			}
			s.enqueue(request{kind: t, req: req})
		default:
			s.protocolFault(fmt.Errorf("unexpected frame type %q", byte(t)))
			return
		}
	}
}

// protocolFault answers a malformed frame; the caller then drops the
// connection, since framing state can no longer be trusted.
func (s *session) protocolFault(err error) {
	_ = s.out.answer(wire.TypeError,
		wire.AppendError(nil, wire.ErrorMsg{Code: wire.CodeProtocol, Message: err.Error()}), nil)
}

// enqueue hands a request to the worker, or answers it directly when the
// session is draining or the pipeline is full.
func (s *session) enqueue(r request) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.refuse(r.req.ID, wire.CodeShutdown, s.srv.shuttingDown())
		return
	}
	if s.pending >= pipelineDepth {
		s.mu.Unlock()
		s.refuse(r.req.ID, wire.CodeBusy,
			fmt.Sprintf("pipeline limit of %d requests reached", pipelineDepth))
		return
	}
	s.pending++
	s.queued[r.req.ID] = false
	s.mu.Unlock()
	// Never blocks: pending (bounded above by pipelineDepth) counts every
	// request between enqueue and its finishRequest, so channel occupancy
	// is strictly below capacity here.
	s.reqs <- r
}

// serve executes one request and writes its response frames. A panic is
// confined to this session: it answers an "internal" error and closes
// the connection, leaving the server and other sessions running.
func (s *session) serve(hs Session, r request) {
	defer s.finishRequest()
	id := r.req.ID
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			s.srv.m.panics.Inc()
			s.srv.logf("session %d: panic serving %q: %v", s.id, r.req.SQL, p)
			s.fail(id, start, wire.CodeInternal, fmt.Sprintf("internal error: %v", p))
			s.closeConn()
		}
	}()
	ctx, cancel, draining := s.beginRequest(r.req)
	defer s.endRequest(cancel)
	if draining {
		s.refuse(id, wire.CodeShutdown, s.srv.shuttingDown())
		return
	}

	if r.kind == wire.TypeQuery {
		rows, err := hs.Query(ctx, r.req.SQL)
		if err != nil {
			code, msg := errorCode(err)
			s.fail(id, start, code, msg)
			return
		}
		_ = s.out.writeRows(id, rows, func() { s.srv.m.executed(start, "") })
		return
	}
	n, err := hs.Exec(ctx, r.req.SQL)
	if err != nil {
		code, msg := errorCode(err)
		s.fail(id, start, code, msg)
		return
	}
	_ = s.out.answer(wire.TypeComplete, wire.AppendComplete(nil, wire.Complete{ID: id, Rows: n}),
		func() { s.srv.m.executed(start, "") })
}

// fail answers a statement that ran and failed. Write errors are
// connection-level; the reader notices them too.
func (s *session) fail(id uint32, start time.Time, code, msg string) {
	_ = s.out.answer(wire.TypeError, wire.AppendError(nil, wire.ErrorMsg{ID: id, Code: code, Message: msg}),
		func() { s.srv.m.executed(start, code) })
}

// refuse answers a request that never ran.
func (s *session) refuse(id uint32, code, msg string) {
	_ = s.out.answer(wire.TypeError, wire.AppendError(nil, wire.ErrorMsg{ID: id, Code: code, Message: msg}),
		func() { s.srv.m.failed(code) })
}

// beginRequest takes a request off the queue, publishes it as
// cancellable and derives its context: the server's QueryTimeout,
// tightened — never loosened — by the request's own TimeoutMillis. A
// request canceled while it waited starts with its context canceled.
// draining reports that the session stopped admitting work meanwhile.
func (s *session) beginRequest(r wire.Request) (ctx context.Context, cancel context.CancelFunc, draining bool) {
	timeout := s.srv.opts.QueryTimeout
	if d := time.Duration(r.TimeoutMillis) * time.Millisecond; d > 0 && (timeout == 0 || d < timeout) {
		timeout = d
	}
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), timeout)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	s.mu.Lock()
	canceled := s.queued[r.ID]
	delete(s.queued, r.ID)
	s.curID, s.curCancel = r.ID, cancel
	draining = s.draining
	s.mu.Unlock()
	if canceled {
		cancel()
	}
	return ctx, cancel, draining
}

func (s *session) endRequest(cancel context.CancelFunc) {
	s.mu.Lock()
	s.curCancel = nil
	s.mu.Unlock()
	cancel()
}

// finishRequest retires one pending request; during a drain, the last
// answer closes the connection.
func (s *session) finishRequest() {
	s.mu.Lock()
	s.pending--
	closeNow := s.draining && s.pending == 0
	s.mu.Unlock()
	if closeNow {
		s.closeConn()
	}
}

// cancelRequest interrupts the in-flight statement if it matches id, or
// marks a queued one so it starts canceled.
func (s *session) cancelRequest(id uint32) {
	s.mu.Lock()
	cancel := s.curCancel
	match := cancel != nil && s.curID == id
	if _, waiting := s.queued[id]; waiting && !match {
		s.queued[id] = true
	}
	s.mu.Unlock()
	if match {
		cancel()
	}
}

// cancelCurrent interrupts whatever statement is running.
func (s *session) cancelCurrent() {
	s.mu.Lock()
	cancel := s.curCancel
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// beginDrain stops the session admitting requests; if none is pending
// the connection closes now, otherwise the worker closes it after the
// last pending answer.
func (s *session) beginDrain() {
	s.mu.Lock()
	s.draining = true
	idle := s.pending == 0
	s.mu.Unlock()
	if idle {
		s.closeConn()
	}
}

func (s *session) hasPending() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending > 0
}

// closeConn is safe to call from any goroutine, repeatedly.
func (s *session) closeConn() {
	_ = s.conn.Close()
}

// countReader counts bytes into a metrics counter; n lets the reader
// goroutine (its only caller) distinguish an idle timeout from one that
// interrupted a partial frame.
type countReader struct {
	r io.Reader
	c *metrics.Counter
	n int64
}

func (cr *countReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	cr.c.Add(int64(n))
	return n, err
}

// countWriter counts bytes out beneath the session's bufio.Writer.
type countWriter struct {
	w io.Writer
	c *metrics.Counter
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.c.Add(int64(n))
	return n, err
}

// frameWriter serializes response frames from the worker and the reader
// (Pong, refusals, protocol errors) onto one buffered connection.
type frameWriter struct {
	mu      sync.Mutex
	conn    net.Conn
	bw      *bufio.Writer
	timeout time.Duration
}

func newFrameWriter(conn net.Conn, c *metrics.Counter, timeout time.Duration) *frameWriter {
	return &frameWriter{
		conn:    conn,
		bw:      bufio.NewWriter(&countWriter{w: conn, c: c}),
		timeout: timeout,
	}
}

func (w *frameWriter) write(t wire.Type, payload []byte, flush bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := wire.WriteFrame(w.bw, t, payload); err != nil {
		return err
	}
	if flush {
		return w.flushLocked()
	}
	return nil
}

// answer writes a request's terminal frame (Complete or Error) and
// flushes it. settle, when set, records the request's instruments under
// the write lock before the flush, so they are already true when the
// client can see the answer. An answer that cannot be written settles
// nothing: the connection is gone.
func (w *frameWriter) answer(t wire.Type, payload []byte, settle func()) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.answerLocked(t, payload, settle)
}

func (w *frameWriter) answerLocked(t wire.Type, payload []byte, settle func()) error {
	if err := wire.WriteFrame(w.bw, t, payload); err != nil {
		return err
	}
	if settle != nil {
		settle()
	}
	return w.flushLocked()
}

// rowBatchTarget is the encoded-tuple budget per RowBatch frame: small
// enough to keep first-row latency low, large enough that high-fanout
// scans amortize the frame header and CRC over hundreds of tuples.
const rowBatchTarget = 32 << 10

// writeRows streams a Query answer: RowDescription, the data rows, then
// CommandComplete, with settle run as in answer. Consecutive tuples
// coalesce into RowBatch frames of about rowBatchTarget encoded bytes; a
// batch that ends up holding a single tuple is sent as a plain DataRow,
// so low-fanout answers look exactly as they did before batching
// existed. Rows are already materialized, so holding the write lock here
// costs encoding time only, never executor time.
func (w *frameWriter) writeRows(id uint32, rows RowSource, settle func()) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	desc := wire.RowDesc{ID: id, Strategy: rows.Strategy(), Columns: rows.Columns()}
	if err := wire.WriteFrame(w.bw, wire.TypeRowDesc, wire.AppendRowDesc(nil, desc)); err != nil {
		return err
	}
	var n int64
	count := 0
	tuples := make([]byte, 0, 4096)
	scratch := make([]byte, 0, 256)
	flushBatch := func() error {
		if count == 0 {
			return nil
		}
		t := wire.TypeDataRow
		scratch = wire.AppendID(scratch[:0], id)
		if count > 1 {
			t = wire.TypeRowBatch
			scratch = binary.AppendUvarint(scratch, uint64(count))
		}
		scratch = append(scratch, tuples...)
		tuples, count = tuples[:0], 0
		if err := wire.WriteFrame(w.bw, t, scratch); err != nil {
			return err
		}
		if w.bw.Buffered() > 1<<16 {
			return w.flushLocked()
		}
		return nil
	}
	for rows.Next() {
		tuples = types.EncodeRow(tuples, rows.Row())
		count++
		n++
		if len(tuples) >= rowBatchTarget {
			if err := flushBatch(); err != nil {
				return err
			}
		}
	}
	if err := flushBatch(); err != nil {
		return err
	}
	return w.answerLocked(wire.TypeComplete, wire.AppendComplete(scratch[:0], wire.Complete{ID: id, Rows: n}), settle)
}

func (w *frameWriter) flushLocked() error {
	_ = w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
	return w.bw.Flush()
}
