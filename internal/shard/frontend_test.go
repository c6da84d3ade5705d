package shard_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"recdb/client"
	"recdb/internal/shard"
	"recdb/internal/wire"
)

// The router serves clients through the same front end as recdb-server;
// these tests pin that front end's protocol contract as seen through a
// router.

// TestRouterCountersSettledBeforeAnswer: shard.queries is already true
// when the client holds each answer, with no sleep in between.
func TestRouterCountersSettledBeforeAnswer(t *testing.T) {
	r, c := cluster(t, 2)
	ctx := context.Background()
	if _, err := c.Exec(ctx, seedDDL); err != nil { // one Exec request
		t.Fatal(err)
	}
	if got := counter(r.Metrics(), "shard.queries"); got != 1 {
		t.Fatalf("after DDL: shard.queries = %d, want 1", got)
	}
	for i := int64(2); i <= 200; i++ {
		var err error
		if i%2 == 0 {
			_, err = c.Exec(ctx, fmt.Sprintf("INSERT INTO ratings VALUES (%d, 1, 4.0)", i))
		} else {
			_, err = c.Query(ctx, fmt.Sprintf("SELECT uid FROM ratings WHERE uid = %d", i-1))
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := counter(r.Metrics(), "shard.queries"); got != i {
			t.Fatalf("after round trip %d: shard.queries = %d", i, got)
		}
	}

	// A statement the router refuses to route fails "query".
	_, err := c.Query(ctx, "SELECT COUNT(*) FROM ratings")
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeQuery {
		t.Fatalf("denied statement returned %v, want code %q", err, wire.CodeQuery)
	}
	if got := counter(r.Metrics(), "shard.errors.query"); got != 1 {
		t.Fatalf("shard.errors.query = %d, want 1", got)
	}
}

func TestRouterBusyAtMaxConns(t *testing.T) {
	r, _ := startRouter(t, shard.Options{Shards: []string{startShard(t)}, MaxConns: 1})
	// startRouter's own client holds the only slot: its Hello arrived
	// after the session was admitted.
	_, err := client.Dial(r.Addr())
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeBusy {
		t.Fatalf("dial past MaxConns returned %v, want code %q", err, wire.CodeBusy)
	}
	if got := counter(r.Metrics(), "shard.rejected_busy"); got != 1 {
		t.Fatalf("shard.rejected_busy = %d, want 1", got)
	}
}

// crossJoin scatters to every shard and runs long enough to interrupt:
// each shard's slice of ratings to the fourth power.
const crossJoin = `SELECT A.uid FROM ratings A, ratings B, ratings C, ratings D WHERE A.uid > B.uid AND B.iid > C.iid AND C.uid > D.uid AND A.ratingval > 4.0`

func TestRouterCancelInFlightScatter(t *testing.T) {
	r, c := cluster(t, 2)
	ctx := context.Background()
	if _, err := c.Exec(ctx, seedDDL); err != nil {
		t.Fatal(err)
	}
	var vals []string
	for u := 1; u <= 16; u++ {
		for i := 1; i <= 12; i++ {
			if (u+i)%3 != 0 {
				vals = append(vals, fmt.Sprintf("(%d, %d, %d.0)", u, i, (u*i)%5+1))
			}
		}
	}
	if _, err := c.Exec(ctx, "INSERT INTO ratings VALUES "+strings.Join(vals, ", ")); err != nil {
		t.Fatal(err)
	}

	qctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		// Cancel once the router has fanned the read out.
		for counter(r.Metrics(), "shard.scatter") == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	start := time.Now()
	_, err := c.Query(qctx, crossJoin)
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeCanceled {
		t.Fatalf("canceled scatter returned %v, want code %q", err, wire.CodeCanceled)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancel took %v; the scatter ran to completion", elapsed)
	}
	if got := counter(r.Metrics(), "shard.errors.canceled"); got != 1 {
		t.Fatalf("shard.errors.canceled = %d, want 1", got)
	}
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("ping after cancel: %v", err)
	}
}

// rawConn dials addr and completes the handshake without the client
// library, so a test can pipeline frames and read every answer.
func rawConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if _, err := conn.Write([]byte(wire.Magic)); err != nil {
		t.Fatal(err)
	}
	if typ, _, _, err := wire.ReadFrame(conn, nil); err != nil || typ != wire.TypeHello {
		t.Fatalf("handshake: type %q err %v", byte(typ), err)
	}
	return conn
}

// readAnswer reads frames up to a request's terminal frame and returns
// it: the Complete row count, or the Error.
func readAnswer(t *testing.T, conn net.Conn) (wire.Complete, *wire.ErrorMsg) {
	t.Helper()
	for {
		typ, payload, _, err := wire.ReadFrame(conn, nil)
		if err != nil {
			t.Fatalf("reading answer: %v", err)
		}
		switch typ {
		case wire.TypeComplete:
			done, err := wire.DecodeComplete(payload)
			if err != nil {
				t.Fatal(err)
			}
			return done, nil
		case wire.TypeError:
			e, err := wire.DecodeError(payload)
			if err != nil {
				t.Fatal(err)
			}
			return wire.Complete{}, &e
		}
	}
}

func TestRouterShutdownAnswersQueuedRequest(t *testing.T) {
	r, c, proxy := proxiedCluster(t)
	ctx := context.Background()
	if _, err := c.Exec(ctx, seedDDL); err != nil {
		t.Fatal(err)
	}
	owned := shardUser(t, r, c, 1)
	idle, err := client.Dial(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = idle.Close() }()

	// Request 1 reads from shard 1 and is held in flight by the stalled
	// proxy; request 2 queues behind it on the same session.
	conn := rawConn(t, r.Addr())
	proxy.stall()
	before := counter(r.Metrics(), "shard.1.routed")
	query := fmt.Sprintf("SELECT uid FROM ratings WHERE uid = %d", owned)
	for id := uint32(1); id <= 2; id++ {
		if err := wire.WriteFrame(conn, wire.TypeQuery,
			wire.AppendRequest(nil, wire.Request{ID: id, SQL: query})); err != nil {
			t.Fatal(err)
		}
	}
	for counter(r.Metrics(), "shard.1.routed") == before {
		time.Sleep(time.Millisecond)
	}

	shutdown := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		shutdown <- r.Shutdown(sctx)
	}()
	// The drain marks every session draining in one pass and closes the
	// idle ones at once. The held statement may finish once that pass is
	// over; the idle session closing shows it has begun, and the pause
	// covers the rest of the pass.
	for idle.Ping(ctx) == nil {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	proxy.revive()

	if done, e := readAnswer(t, conn); e != nil || done.ID != 1 {
		t.Fatalf("in-flight request: complete %+v, error %+v; want request 1 to complete", done, e)
	}
	if _, e := readAnswer(t, conn); e == nil || e.ID != 2 || e.Code != wire.CodeShutdown {
		t.Fatalf("queued request answered %+v, want request 2 %q", e, wire.CodeShutdown)
	}
	if err := <-shutdown; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := counter(r.Metrics(), "shard.errors.shutdown"); got != 1 {
		t.Fatalf("shard.errors.shutdown = %d, want 1", got)
	}
}

func TestRouterRawProtocolRejections(t *testing.T) {
	r, _ := cluster(t, 1)
	expectProtocolError := func(t *testing.T, conn net.Conn) {
		t.Helper()
		typ, payload, _, err := wire.ReadFrame(conn, nil)
		if err != nil || typ != wire.TypeError {
			t.Fatalf("frame type %q err %v, want Error frame", byte(typ), err)
		}
		if e, err := wire.DecodeError(payload); err != nil || e.Code != wire.CodeProtocol {
			t.Fatalf("error = %+v (%v), want code %q", e, err, wire.CodeProtocol)
		}
		// Framing state is gone: the router drops the connection.
		if _, _, _, err := wire.ReadFrame(conn, nil); err == nil {
			t.Fatal("connection survived a protocol fault")
		}
	}

	t.Run("bad magic", func(t *testing.T) {
		conn, err := net.Dial("tcp", r.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = conn.Close() }()
		if _, err := conn.Write([]byte("HTTP/1\n")); err != nil {
			t.Fatal(err)
		}
		expectProtocolError(t, conn)
	})

	t.Run("corrupt frame", func(t *testing.T) {
		conn := rawConn(t, r.Addr())
		var buf bytes.Buffer
		if err := wire.WriteFrame(&buf, wire.TypePing, wire.AppendID(nil, 7)); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		raw[5] ^= 0xff // flip a CRC byte
		if _, err := conn.Write(raw); err != nil {
			t.Fatal(err)
		}
		expectProtocolError(t, conn)
	})
}
