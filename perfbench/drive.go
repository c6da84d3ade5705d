package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"recdb/client"
	"recdb/internal/types"
)

// conns is the closed loop's client count: one per core of the
// two-core machine the benchmark targets, since more connections than
// cores would measure queueing rather than the server.
const conns = 2

// refEvery is the share (1 in refEvery) of routed point and scatter
// reads whose answers are compared with the single-node reference.
const refEvery = 8

// result is what one closed-loop phase observed.
type result struct {
	elapsed   time.Duration
	lat       map[string][]time.Duration // per kind, completed statements only
	attempted int
	failed    int
	errs      []string // the first few failures
	checkErr  error    // the first wrong answer
	// lastWrite is every acknowledged re-rating's value, by (user, item).
	lastWrite map[[2]int64]float64
	// refs are routed answers kept for the reference comparison.
	refs []answer
	// itemCF and indexed count ItemCosCF recommends and how many of them
	// planned as IndexRecommend.
	itemCF, indexed int
}

type answer struct {
	o    op
	rows []types.Row
}

// runOne issues one statement on c and returns its rows (nil for a
// write), its plan strategy and its latency.
func runOne(ctx context.Context, c *client.Conn, o op) ([]types.Row, string, time.Duration, error) {
	start := time.Now()
	if o.kind == kindWrite {
		res, err := c.Exec(ctx, o.sql)
		d := time.Since(start)
		if err == nil && res.RowsAffected != 1 {
			err = fmt.Errorf("%q affected %d rows, want 1", o.sql, res.RowsAffected)
		}
		return nil, "", d, err
	}
	rows, err := c.Query(ctx, o.sql)
	d := time.Since(start)
	if err != nil {
		return nil, "", d, err
	}
	return rows.All(), rows.Strategy(), d, nil
}

// drive runs the closed loop: conns connections, each issuing its own
// seeded stream back to back, for warmup and then for measure. Only
// statements started inside the measured window are counted; every
// answer, warm-up included, is checked.
func drive(e *env, seed int64, warmup, measure time.Duration) (*result, error) {
	ctx := context.Background()
	clients := make([]*client.Conn, conns)
	for i := range clients {
		c, err := client.Dial(e.addr())
		if err != nil {
			return nil, err
		}
		defer c.Close()
		clients[i] = c
	}
	parts := make([]*result, conns)
	t0 := time.Now()
	from, until := t0.Add(warmup), t0.Add(warmup+measure)
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parts[i] = loop(ctx, e, clients[i], newGen(e.f, seed, e.w, i, conns),
				newRNG(seed, "reference-sample", i), from, until)
		}(i)
	}
	wg.Wait()
	total := &result{elapsed: time.Since(from), lat: make(map[string][]time.Duration),
		lastWrite: make(map[[2]int64]float64)}
	for _, p := range parts {
		total.attempted += p.attempted
		total.failed += p.failed
		total.errs = append(total.errs, p.errs...)
		if total.checkErr == nil {
			total.checkErr = p.checkErr
		}
		for k, l := range p.lat {
			total.lat[k] = append(total.lat[k], l...)
		}
		for k, v := range p.lastWrite {
			total.lastWrite[k] = v
		}
		total.refs = append(total.refs, p.refs...)
		total.itemCF += p.itemCF
		total.indexed += p.indexed
	}
	return total, nil
}

func failure(o op, err error) error { return fmt.Errorf("%s %q failed: %w", o.kind, o.sql, err) }

func loop(ctx context.Context, e *env, c *client.Conn, g *gen, refPick *rng, from, until time.Time) *result {
	res := &result{lat: make(map[string][]time.Duration), lastWrite: make(map[[2]int64]float64)}
	for {
		now := time.Now()
		if !now.Before(until) {
			return res
		}
		measured := !now.Before(from)
		o := e.w.next(g)
		rows, strategy, d, err := runOne(ctx, c, o)
		if measured {
			res.attempted++
		}
		if err != nil {
			if measured {
				res.failed++
			}
			if len(res.errs) < 5 {
				res.errs = append(res.errs, failure(o, err).Error())
			}
			continue
		}
		if o.kind == kindWrite {
			res.lastWrite[[2]int64{o.user, o.item}] = o.value
		} else if cerr := checkRows(e.f, o, rows); cerr != nil && res.checkErr == nil {
			res.checkErr = fmt.Errorf("%s %q: %w", o.kind, o.sql, cerr)
		}
		if e.w.routed && (o.kind == kindRead || o.kind == kindScatter) && refPick.intn(refEvery) == 0 {
			res.refs = append(res.refs, answer{o, rows})
		}
		if !measured {
			continue
		}
		res.lat[o.kind] = append(res.lat[o.kind], d)
		if o.algo == "ItemCosCF" {
			res.itemCF++
			if strategy == "IndexRecommend" {
				res.indexed++
			}
		}
	}
}
