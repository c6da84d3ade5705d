package server_test

import (
	"context"
	"errors"
	"testing"

	"recdb/client"
	"recdb/internal/server"
	"recdb/internal/wire"
)

// TestServerCountersSettledBeforeAnswer pins when the statement
// instruments move: before the answer's final flush, so a client that
// has its answer can already read the count. Each round trip is checked
// with no sleep or retry in between.
func TestServerCountersSettledBeforeAnswer(t *testing.T) {
	db := seededDB(t)
	addr, _ := startServer(t, db, server.Options{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	ctx := context.Background()
	for i := int64(1); i <= 200; i++ {
		if i%2 == 0 {
			_, err = c.Query(ctx, `SELECT uid FROM ratings WHERE uid = 1`)
		} else {
			_, err = c.Exec(ctx, `UPDATE ratings SET ratingval = 3.0 WHERE uid = 2 AND iid = 3`)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := db.Metrics().Get("server.queries"); got != i {
			t.Fatalf("after round trip %d: server.queries = %d", i, got)
		}
	}

	// A failed statement ran: it is counted as a query and by its code.
	_, err = c.Query(ctx, `SELECT nope FROM missing_table`)
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeQuery {
		t.Fatalf("bad statement returned %v, want code %q", err, wire.CodeQuery)
	}
	snap := db.Metrics()
	if got, _ := snap.Get("server.errors.query"); got != 1 {
		t.Fatalf("server.errors.query = %d, want 1", got)
	}
	if got, _ := snap.Get("server.queries"); got != 201 {
		t.Fatalf("server.queries = %d after a failed statement, want 201", got)
	}
	for _, h := range snap.Histograms {
		if h.Name == "server.query_ns" && h.Count != 201 {
			t.Fatalf("server.query_ns count = %d, want 201", h.Count)
		}
	}
}
