// Package server is recdb-server's serving layer: it exposes an embedded
// recdb.DB over TCP through the shared wire-protocol front end
// (internal/frontend), as a handler that runs each connection's
// statements on its own recdb.Session.
//
// Per-connection sessions, pipelining, cancellation, backpressure, panic
// isolation and the drain contract are the front end's; this package
// adds what is specific to an engine. A connection's transaction state
// (BEGIN/COMMIT/ROLLBACK) lives in its recdb.Session, and a client that
// drops mid-transaction has it rolled back. Once a Shutdown drain
// completes, a database with a durable home takes a final checkpoint
// before Shutdown returns.
package server

import (
	"context"
	"fmt"

	"recdb"
	"recdb/internal/frontend"
)

// Options tunes a Server; see frontend.Options.
type Options = frontend.Options

// Server serves one recdb.DB to network clients. Serve, Addr and
// Shutdown come from the embedded front end.
type Server struct {
	*frontend.Server
	db *recdb.DB

	// testExecHook, when set before Serve, runs just before each
	// statement executes — the panic-isolation tests use it to blow up a
	// chosen statement without needing a crashing SQL input.
	testExecHook func(sql string)
}

// New wraps db in a Server. The server records into db's own metrics
// registry under "server.", so `\metrics` and the HTTP exporter see
// serving-layer instruments next to engine ones.
func New(db *recdb.DB, opts Options) *Server {
	s := &Server{db: db}
	s.Server = frontend.New(handler{s}, opts, db.Engine().Metrics(), "server")
	return s
}

// handler adapts the Server to the front end.
type handler struct{ s *Server }

func (h handler) Open() frontend.Session {
	return dbSession{s: h.s, sess: h.s.db.NewSession()}
}

// Drained takes the final checkpoint when the database has a durable
// home.
func (h handler) Drained(context.Context) error {
	if info := h.s.db.Durability(); info.Attached {
		if err := h.s.db.SaveTo(info.Dir); err != nil {
			return fmt.Errorf("server: final checkpoint: %w", err)
		}
	}
	return nil
}

// dbSession runs one connection's statements on its recdb.Session.
type dbSession struct {
	s    *Server
	sess *recdb.Session
}

func (d dbSession) Query(ctx context.Context, sql string) (frontend.RowSource, error) {
	if hook := d.s.testExecHook; hook != nil {
		hook(sql)
	}
	rows, err := d.sess.QueryContext(ctx, sql)
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func (d dbSession) Exec(ctx context.Context, sql string) (int64, error) {
	if hook := d.s.testExecHook; hook != nil {
		hook(sql)
	}
	res, err := d.sess.ExecContext(ctx, sql)
	return res.RowsAffected, err
}

func (d dbSession) Close() error { return d.sess.Close() }
