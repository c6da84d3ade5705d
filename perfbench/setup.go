package main

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"time"

	"recdb"
	"recdb/client"
	"recdb/internal/dataset"
	"recdb/internal/server"
	"recdb/internal/shard"
)

// shards is the routed tier's width.
const shards = 2

// node is one database served over loopback TCP.
type node struct {
	db   *recdb.DB
	srv  *server.Server
	addr string
	done chan error
}

func serve(db *recdb.DB) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{db: db, srv: server.New(db, server.Options{}), addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { n.done <- n.srv.Serve(ln) }()
	return n, nil
}

// stop shuts the server down and waits for it; the database stays open.
func (n *node) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = n.srv.Shutdown(ctx)
	<-n.done
}

// env is one workload's served system.
type env struct {
	w    *workload
	f    *facts
	db   *recdb.DB // the served database (nil for routed-read)
	home string    // durable home ("" when in memory)
	main *node     // serves db (nil for routed-read)

	shards     []*node
	router     *shard.Router
	routerAddr string
	routerDone chan error
}

// addr is where the workload's clients connect.
func (e *env) addr() string {
	if e.w.routed {
		return e.routerAddr
	}
	return e.main.addr
}

// nodes are the served databases whose registries the workload moves.
func (e *env) nodes() []*node {
	if e.w.routed {
		return e.shards
	}
	return []*node{e.main}
}

// close stops everything e started and waits for it. It may be called
// more than once.
func (e *env) close() {
	if e.router != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = e.router.Shutdown(ctx)
		cancel()
		<-e.routerDone
		e.router = nil
	}
	for _, n := range e.shards {
		n.stop()
		n.db.Close()
	}
	e.shards = nil
	if e.main != nil {
		e.main.stop()
		e.main = nil
	}
	if e.db != nil {
		e.db.Close()
		e.db = nil
	}
}

func createRecommender(exec func(string) error, algo string) error {
	return exec(fmt.Sprintf(`CREATE RECOMMENDER %s ON ratings USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING %s`, recName(algo), algo))
}

// setup builds the workload's system from the seed: data, index,
// recommenders, durable home, materialized hot users and server, or,
// for routed-read, the shards and the router, with the shards seeded
// through it.
func setup(w *workload, seed int64, home string) (*env, error) {
	spec := dataset.MovieLens.Scaled(dataScale)
	spec.Seed = seed
	e := &env{w: w, f: newFacts(dataset.Generate(spec))}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()
	if w.routed {
		if err := e.startRouted(); err != nil {
			return nil, err
		}
		ok = true
		return e, nil
	}

	db, err := singleNode(e.f.data)
	e.db = db
	if err != nil {
		return nil, err
	}
	for _, algo := range w.models {
		if err := createRecommender(dbExec(e.db), algo); err != nil {
			return nil, err
		}
	}
	if w.durable {
		e.home = home
		if err := e.db.SaveTo(home); err != nil {
			return nil, err
		}
	}
	if w.name == "paper-recommend" {
		for _, u := range e.f.hot() {
			if err := e.db.MaterializeUser(recName("ItemCosCF"), u); err != nil {
				return nil, err
			}
		}
		if err := checkMaterialized(e); err != nil {
			return nil, err
		}
	}
	n, err := serve(e.db)
	if err != nil {
		return nil, err
	}
	e.main = n
	ok = true
	return e, nil
}

func dbExec(db *recdb.DB) func(string) error {
	return func(q string) error { _, err := db.Exec(q); return err }
}

// singleNode opens an in-memory database, loads data into it and
// indexes ratings by user. On error it returns the database too, for
// the caller to close.
func singleNode(data *dataset.Data) (*recdb.DB, error) {
	db := recdb.Open(recdb.WithWALSyncEvery(1))
	if err := dataset.Load(db.Engine(), data); err != nil {
		return db, err
	}
	return db, dbExec(db)(`CREATE INDEX ratings_uid ON ratings (uid)`)
}

// startRouted starts the shards and the router, and seeds the shards
// through the router: DDL is broadcast, user-keyed INSERTs are split by
// owner, and items is replicated.
func (e *env) startRouted() error {
	var addrs []string
	for i := 0; i < shards; i++ {
		n, err := serve(recdb.Open())
		if err != nil {
			return err
		}
		e.shards = append(e.shards, n)
		addrs = append(addrs, n.addr)
	}
	r, err := shard.New(shard.Options{Shards: addrs})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = r.Shutdown(context.Background())
		return err
	}
	e.router, e.routerAddr, e.routerDone = r, ln.Addr().String(), make(chan error, 1)
	go func() { e.routerDone <- r.Serve(ln) }()

	c, err := client.Dial(e.routerAddr)
	if err != nil {
		return err
	}
	defer c.Close()
	ctx := context.Background()
	exec := func(q string) error {
		if _, err := c.Exec(ctx, q); err != nil {
			return fmt.Errorf("seeding through the router: %w", err)
		}
		return nil
	}
	for _, ddl := range []string{
		`CREATE TABLE users (uid INT, name TEXT, city TEXT, age INT, gender TEXT)`,
		`CREATE TABLE items (iid INT, name TEXT, director TEXT, genre TEXT)`,
		`CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)`,
	} {
		if err := exec(ddl); err != nil {
			return err
		}
	}
	d := e.f.data
	var rows []string
	flush := func(table string) error {
		if len(rows) == 0 {
			return nil
		}
		err := exec(fmt.Sprintf(`INSERT INTO %s VALUES %s`, table, strings.Join(rows, ", ")))
		rows = rows[:0]
		return err
	}
	const batch = 250
	for _, u := range d.Users {
		rows = append(rows, fmt.Sprintf(`(%d, '%s', '%s', %d, '%s')`, u.ID, u.Name, u.City, u.Age, u.Gender))
	}
	if err := flush("users"); err != nil {
		return err
	}
	for _, it := range d.Items {
		rows = append(rows, fmt.Sprintf(`(%d, '%s', '%s', '%s')`, it.ID, it.Name, it.Director, it.Genre))
	}
	if err := flush("items"); err != nil {
		return err
	}
	for i, r := range d.Ratings {
		rows = append(rows, fmt.Sprintf(`(%d, %d, %.1f)`, r.User, r.Item, r.Value))
		if (i+1)%batch == 0 {
			if err := flush("ratings"); err != nil {
				return err
			}
		}
	}
	if err := flush("ratings"); err != nil {
		return err
	}
	if err := exec(`CREATE INDEX ratings_uid ON ratings (uid)`); err != nil {
		return err
	}
	for _, algo := range e.w.models {
		if err := createRecommender(exec, algo); err != nil {
			return err
		}
	}
	return nil
}

// timedSetup runs set-up reps times, reports each duration, and keeps
// the last system. Every earlier one is closed before the next starts.
func timedSetup(w *workload, seed int64, dir string, reps int) (*env, []float64, error) {
	var secs []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		e, err := setup(w, seed, filepath.Join(dir, fmt.Sprintf("home%d", i)))
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		secs = append(secs, time.Since(start).Seconds())
		if i == reps-1 {
			return e, secs, nil
		}
		e.close()
	}
	return nil, nil, fmt.Errorf("no set-up ran")
}
