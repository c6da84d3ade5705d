package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"recdb"
	"recdb/client"
	"recdb/internal/exec"
	"recdb/internal/metrics"
	"recdb/internal/plan"
	"recdb/internal/shard"
	"recdb/internal/sql"
	"recdb/internal/types"
)

// Per-layer metrics come from a traced run: one connection replays the
// first traceOps statements of the workload's stream
//
//  1. through the wire without spans (the untraced baseline), and
//  2. through the wire with a client span per statement and registry
//     deltas around it (server and router time, bytes, fan-out),
//     interleaved with phase 1 in blocks,
//  3. in process, with a span around each call into sql.Parse,
//     Planner().PlanSelect and exec.Collect for reads and DB.ExecContext
//     for writes, and registry deltas around each call,
//  4. as EXPLAIN ANALYZE for a sample, for per-operator self time, and,
//     for routed-read, routed against direct-to-owner for the hop cost.
//
// Phase 2 against phase 1 is the tracing overhead. The benchmark records
// spans only around its own calls into each layer; a span recovered
// from a registry delta (server or router time) has no start of its own
// and is centred in its parent, marked derived.

// snap is a flattened registry snapshot: counters and gauges by name,
// histograms as <name>.count and <name>.sum.
type snap map[string]int64

func flatten(into snap, s metrics.Snapshot) {
	for _, v := range s.Counters {
		into[v.Name] += v.Value
	}
	for _, v := range s.Gauges {
		into[v.Name] += v.Value
	}
	for _, h := range s.Histograms {
		into[h.Name+".count"] += h.Count
		into[h.Name+".sum"] += h.Sum
	}
}

// snapshots sums the registries of every served database and the
// router's. Server instruments are named server.*, router ones shard.*,
// so the sum keeps them apart.
func snapshots(e *env) snap {
	s := make(snap)
	for _, n := range e.nodes() {
		flatten(s, n.db.Engine().Metrics().Snapshot())
	}
	if e.router != nil {
		flatten(s, e.router.Metrics())
	}
	return s
}

func dbSnapshot(db *recdb.DB) snap {
	s := make(snap)
	flatten(s, db.Engine().Metrics().Snapshot())
	return s
}

func deltas(a, b snap) snap {
	d := make(snap, len(b))
	for k, v := range b {
		if x := v - a[k]; x != 0 {
			d[k] = x
		}
	}
	return d
}

func (s snap) add(o snap) {
	for k, v := range o {
		s[k] += v
	}
}

// span is one timed call. Spans of one statement share req; times are
// nanoseconds since the trace began.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a statement's root span
	Req     int    `json:"req"`
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Derived bool   `json:"derived,omitempty"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(s span) int {
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// derive adds a span of duration d centred in parent.
func (t *tracer) derive(parent int, name string, d int64) int {
	p := t.spans[parent-1]
	if d > p.End-p.Start {
		d = p.End - p.Start
	}
	start := p.Start + (p.End-p.Start-d)/2
	return t.add(span{Parent: parent, Req: p.Req, Name: name, Kind: p.Kind, Start: start, End: start + d, Derived: true})
}

// selfTimes returns each span's duration minus the part of it its
// children cover.
func (t *tracer) selfTimes() []int64 {
	kids := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curS, curE int64
		open := false
		for _, c := range iv {
			if open && c[0] <= curE {
				curE = max(curE, c[1])
				continue
			}
			if open {
				covered += curE - curS
			}
			curS, curE, open = c[0], c[1], true
		}
		if open {
			covered += curE - curS
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfByName sums self time per (span name, kind).
func (t *tracer) selfByName() map[string]int64 {
	out := make(map[string]int64)
	for i, st := range t.selfTimes() {
		s := t.spans[i]
		out[s.Name+"|"+s.Kind] += st
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers accumulates per-layer figures.
type layers struct {
	m   map[string]metric
	ops map[string]int // statements per kind
}

func (l *layers) set(name string, v float64, unit string) { l.m[name] = metric{v, unit} }

func (l *layers) perOp(name, kind string, total float64, unit string) {
	if n := l.ops[kind]; n > 0 {
		l.set(name+"."+kind, total/float64(n), unit)
	}
}

// tracedRun runs the traced replay and writes its spans under traceDir.
func tracedRun(e *env, seed int64, traceDir string) (*report, error) {
	for i, n := range e.nodes() {
		for _, t := range n.db.Tables() {
			fmt.Fprintf(os.Stderr, "node %d table %s: %d rows, %d pages\n", i, t.Name, t.Rows, t.Pages)
		}
	}
	g := newGen(e.f, seed, e.w, 0, 1)
	ops := make([]op, e.w.traceOps)
	for i := range ops {
		ops[i] = e.w.next(g)
	}
	rep, tr, err := traceReplay(e, ops)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", e.w.name, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%d spans written to %s\n", len(tr.spans), path)
	for _, name := range sortedKeys(rep.Metrics) {
		fmt.Fprintf(os.Stderr, "  %s %.4f %s\n", name, rep.Metrics[name].Value, rep.Metrics[name].Unit)
	}
	return rep, nil
}

func traceReplay(e *env, ops []op) (*report, *tracer, error) {
	ctx := context.Background()
	c, err := client.Dial(e.addr())
	if err != nil {
		return nil, nil, err
	}
	defer c.Close()
	rep := &report{Correct: true, Metrics: make(map[string]metric)}
	l := &layers{m: rep.Metrics, ops: make(map[string]int)}
	for _, o := range ops {
		l.ops[o.kind]++
	}
	// A failed statement fails the run like a wrong answer.
	var checkErr error
	note := func(err error) {
		if err != nil && checkErr == nil {
			checkErr = err
		}
	}

	// A tenth of the stream first, untimed, so that the untraced phase
	// does not pay for decoding and caching the traced one finds done.
	for _, o := range ops[:len(ops)/10] {
		if _, _, _, err := runOne(ctx, c, o); err != nil {
			return nil, nil, err
		}
	}

	// Phases 1 and 2 interleave in blocks, alternating which runs first,
	// so that drift in the machine's speed falls on both alike.
	tr := &tracer{t0: time.Now()}
	wireDelta := make(snap)
	var untraced, traced time.Duration
	var ratios []float64 // traced over untraced time, per block
	plain := func(o op) {
		rep.Attempted++
		rows, _, _, err := runOne(ctx, c, o)
		if err != nil {
			rep.Failed++
			note(failure(o, err))
		} else if o.kind != kindWrite {
			note(checkRows(e.f, o, rows))
		}
	}
	spanned := func(i int, o op) {
		rep.Attempted++
		s0 := snapshots(e)
		t := tr.now()
		rows, _, _, err := runOne(ctx, c, o)
		end := tr.now()
		if err != nil {
			rep.Failed++
			note(failure(o, err))
			return
		}
		if o.kind != kindWrite {
			note(checkRows(e.f, o, rows))
		}
		d := settle(e, s0, o)
		wireDelta.add(d)
		root := tr.add(span{Req: i + 1, Name: "client.rtt", Kind: o.kind, Start: t, End: end})
		parent := root
		if e.w.routed {
			parent = tr.derive(root, "router.stmt", d["shard.query_ns.sum"])
		}
		legs := max(d["server.queries"], 1)
		for j := int64(0); j < legs; j++ {
			tr.derive(parent, "server.stmt", d["server.query_ns.sum"]/legs)
		}
	}
	const block = 20
	for b := 0; b*block < len(ops); b++ {
		lo, hi := b*block, min((b+1)*block, len(ops))
		var u, t time.Duration
		runPlain := func() {
			start := time.Now()
			for _, o := range ops[lo:hi] {
				plain(o)
			}
			u = time.Since(start)
		}
		runSpanned := func() {
			start := time.Now()
			for i := lo; i < hi; i++ {
				spanned(i, ops[i])
			}
			t = time.Since(start)
		}
		if b%2 == 0 {
			runPlain()
			runSpanned()
		} else {
			runSpanned()
			runPlain()
		}
		untraced, traced = untraced+u, traced+t
		ratios = append(ratios, t.Seconds()/u.Seconds())
	}

	// Phase 3: in process.
	stmt, err := inProcess(e, ops, tr, l, note)
	if err != nil {
		return nil, nil, err
	}

	// Phase 4: operator self time, and the router hop.
	if err := explainSample(e, ops, l); err != nil {
		return nil, nil, err
	}
	if e.w.routed {
		if err := hopSample(e, ops, l); err != nil {
			return nil, nil, err
		}
	}

	// Wire and server figures.
	self := tr.selfByName()
	n := float64(len(ops))
	for _, k := range e.w.kinds {
		l.perOp("wire.overhead_us", k, us(float64(self["client.rtt|"+k])), "us")
	}
	l.set("server.stmt_us", us(float64(wireDelta["server.query_ns.sum"]))/float64(max(wireDelta["server.query_ns.count"], 1)), "us")
	l.set("server.bytes_out_per_op", float64(wireDelta["server.bytes_out"])/n, "bytes")
	l.set("server.rejected_busy", float64(wireDelta["server.rejected_busy"]+wireDelta["shard.rejected_busy"]), "count")
	if e.w.routed {
		var legs int64
		for i := 0; i < shards; i++ {
			legs += wireDelta[fmt.Sprintf("shard.%d.routed", i)] + wireDelta[fmt.Sprintf("shard.%d.fanout", i)]
		}
		l.set("shard.fanout_per_op", float64(legs)/n, "count")
		l.set("shard.retries", float64(wireDelta["shard.retries"]), "count")
		l.set("shard.down_errors", float64(wireDelta["shard.down_errors"]), "count")
	}
	// The median block, because a block whose write trips a model
	// rebuild takes half a second in whichever phase it falls.
	l.set("trace.overhead_pct", 100*(medianFloat(ratios)-1), "%")
	fmt.Fprintf(os.Stderr, "%s traced replay: %d statements, untraced %.3fs, traced %.3fs, in-process statement time %.3fs\n",
		e.w.name, len(ops), untraced.Seconds(), traced.Seconds(), float64(stmt)/1e9)

	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "output check failed:", checkErr)
		rep.Correct = false
	}
	return rep, tr, nil
}

// settle waits until the served side has recorded the statement just
// answered: servers count a statement after writing its answer, so the
// client can see the answer first.
func settle(e *env, s0 snap, o op) snap {
	legs := int64(1)
	if o.kind == kindScatter {
		legs = shards
	}
	deadline := time.Now().Add(time.Second)
	for {
		d := deltas(s0, snapshots(e))
		done := d["server.queries"] >= legs
		if e.w.routed {
			done = done && d["shard.queries"] >= 1
		}
		if done || time.Now().After(deadline) {
			return d
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// target returns the databases a statement runs on in process: the
// served database, or for routed-read the owner shard (every shard for
// a scatter read).
func target(e *env, ring *shard.Ring, o op) []*recdb.DB {
	if !e.w.routed {
		return []*recdb.DB{e.db}
	}
	if o.kind == kindScatter {
		var dbs []*recdb.DB
		for _, n := range e.shards {
			dbs = append(dbs, n.db)
		}
		return dbs
	}
	return []*recdb.DB{e.shards[ring.Owner(o.user)].db}
}

// inProcess replays ops through the layers' public functions with a
// span around each call, and fills the per-layer figures those calls
// give. It returns the total statement time.
func inProcess(e *env, ops []op, tr *tracer, l *layers, note func(error)) (int64, error) {
	ring, err := shard.NewRing(shards)
	if err != nil {
		return 0, err
	}
	ctx := context.Background()
	var total int64
	strategies := make(map[string]int)
	planned := 0
	var itemCF, indexed, vector, writes int
	rows := make(map[string]int)
	acc := make(map[string]snap) // per kind, registry deltas over its calls
	for _, k := range e.w.kinds {
		acc[k] = make(snap)
	}
	timed := func(req, parent int, name, kind string, db *recdb.DB, fn func() error) error {
		s0 := dbSnapshot(db)
		t := tr.now()
		err := fn()
		tr.add(span{Parent: parent, Req: req, Name: name, Kind: kind, Start: t, End: tr.now()})
		acc[kind].add(deltas(s0, dbSnapshot(db)))
		return err
	}
	// read parses, plans and runs one SELECT on db, a span per call.
	read := func(req, root int, db *recdb.DB, o op) (*plan.Explain, []types.Row, error) {
		var stmt sql.Statement
		var opr exec.Operator
		var ex *plan.Explain
		var out []types.Row
		if err := timed(req, root, "sql.parse", o.kind, db, func() (err error) {
			stmt, err = sql.Parse(o.sql)
			return err
		}); err != nil {
			return nil, nil, err
		}
		sel, ok := stmt.(*sql.Select)
		if !ok {
			return nil, nil, fmt.Errorf("%q is not a SELECT", o.sql)
		}
		if err := timed(req, root, "plan.plan", o.kind, db, func() (err error) {
			opr, ex, err = db.Engine().Planner().PlanSelect(sel)
			return err
		}); err != nil {
			return nil, nil, err
		}
		err := timed(req, root, "exec.run", o.kind, db, func() (err error) {
			out, err = exec.Collect(opr)
			return err
		})
		return ex, out, err
	}
	for i, o := range ops {
		req := len(ops) + i + 1
		t := tr.now()
		root := tr.add(span{Req: req, Name: "inproc.stmt", Kind: o.kind, Start: t})
		dbs := target(e, ring, o)
		if o.kind == kindWrite {
			writes++
			if err := timed(req, root, "recdb.write", o.kind, dbs[0], func() error {
				_, err := dbs[0].ExecContext(ctx, o.sql)
				return err
			}); err != nil {
				return 0, err
			}
		}
		for j, db := range dbs {
			if o.kind == kindWrite {
				break // written above
			}
			ex, out, err := read(req, root, db, o)
			if err != nil {
				return 0, err
			}
			rows[o.kind] += len(out)
			if o.kind != kindScatter {
				note(checkRows(e.f, o, out))
			}
			if j > 0 {
				continue // a scatter read's plan is counted once
			}
			strategies[strategyName(ex.Strategy)]++
			planned++
			if o.algo == "ItemCosCF" {
				itemCF++
				if ex.Strategy == "IndexRecommend" {
					indexed++
				}
			}
			if ex.Strategy == "VectorRecommend" {
				vector++
			}
		}
		tr.spans[root-1].End = tr.now()
		total += tr.spans[root-1].End - t
	}

	self := tr.selfByName()
	all := make(snap)
	for _, k := range e.w.kinds {
		all.add(acc[k])
		l.perOp("sql.parse_us", k, us(float64(self["sql.parse|"+k])), "us")
		l.perOp("plan.plan_us", k, us(float64(self["plan.plan|"+k])), "us")
		l.perOp("exec.run_us", k, us(float64(self["exec.run|"+k])), "us")
		l.perOp("exec.rows_per_op", k, float64(rows[k]), "count")
		l.perOp("bufferpool.hits_per_op", k, float64(acc[k]["bufferpool.page_hits"]), "count")
	}
	for s, n := range strategies {
		l.set("plan.share."+s, float64(n)/float64(max(planned, 1)), "share")
	}
	if itemCF > 0 {
		l.set("recindex.hit_share", float64(indexed)/float64(itemCF), "share")
		fmt.Fprintf(os.Stderr, "recindex.hit_share base: %d IndexRecommend of %d ItemCosCF recommends\n", indexed, itemCF)
	}
	if vector > 0 {
		l.set("ann.candidates_per_query", float64(all["ann.candidates"])/float64(vector), "count")
		l.set("ann.probed_per_query", float64(all["ann.probed_centroids"])/float64(vector), "count")
	}
	l.set("ann.exact_fallbacks", float64(all["ann.exact_fallbacks"]), "count")
	l.set("ann.widenings", float64(all["ann.widenings"]), "count")
	l.set("bufferpool.misses", float64(all["bufferpool.page_misses"]), "count")
	l.set("bufferpool.evictions", float64(all["bufferpool.evictions"]), "count")
	if writes > 0 {
		w := acc[kindWrite]
		l.set("recdb.write_us", us(float64(self["recdb.write|"+kindWrite]))/float64(writes), "us")
		l.set("wal.fsync_us", us(float64(w["wal.fsync_ns.sum"]))/float64(max(w["wal.fsync_ns.count"], 1)), "us")
		l.set("wal.syncs_per_write", float64(w["wal.syncs"])/float64(writes), "count")
		l.set("wal.bytes_per_write", float64(w["wal.append_bytes"])/float64(writes), "bytes")
		l.set("wal.batch_size", float64(w["wal.batch_size.sum"])/float64(max(w["wal.batch_size.count"], 1)), "count")
		l.set("rec.rebuilds_per_1k_writes", 1000*float64(w["rec.builds"])/float64(len(e.w.models))/float64(writes), "count")
		if b := w["rec.build_ns.count"]; b > 0 {
			l.set("rec.rebuild_ms", float64(w["rec.build_ns.sum"])/float64(b)/1e6, "ms")
		}
		fmt.Fprintf(os.Stderr, "rec.builds %d over %d in-process writes (%d models per cycle)\n", w["rec.builds"], writes, len(e.w.models))
	}
	return total, nil
}

func strategyName(s string) string {
	if s == "" {
		return "Plain"
	}
	return s
}

// explainPerKind is how many statements of each kind run as EXPLAIN
// ANALYZE for operator self time.
const explainPerKind = 40

// explainSample runs a sample of the read statements as EXPLAIN ANALYZE
// and reports each operator's mean self time per sampled statement.
func explainSample(e *env, ops []op, l *layers) error {
	ring, err := shard.NewRing(shards)
	if err != nil {
		return err
	}
	taken := make(map[string]int)
	selfNs := make(map[string]float64)
	sampled := 0
	for _, o := range ops {
		if o.kind == kindWrite || taken[o.kind] >= explainPerKind {
			continue
		}
		taken[o.kind]++
		sampled++
		for _, db := range target(e, ring, o) {
			rows, err := db.Query("EXPLAIN ANALYZE " + o.sql)
			if err != nil {
				return err
			}
			for _, r := range rows.All() {
				name, d, ok := operatorSelf(r[0].Text())
				if ok {
					selfNs[name] += float64(d)
				}
			}
		}
	}
	for name, ns := range selfNs {
		l.set("exec.self_us."+name, us(ns)/float64(max(sampled, 1)), "us")
	}
	return nil
}

// operatorSelf parses one EXPLAIN ANALYZE plan line: the operator name
// and its self time.
func operatorSelf(line string) (string, time.Duration, bool) {
	line = strings.TrimSpace(line)
	i := strings.Index(line, " self=")
	if i < 0 {
		return "", 0, false
	}
	rest := line[i+len(" self="):]
	if j := strings.IndexAny(rest, " )"); j >= 0 {
		rest = rest[:j]
	}
	d, err := time.ParseDuration(rest)
	if err != nil {
		return "", 0, false
	}
	name := line
	if j := strings.IndexAny(line, " ("); j >= 0 {
		name = line[:j]
	}
	return name, d, true
}

// hopPerKind is how many statements of each kind the hop comparison
// runs both routed and direct.
const hopPerKind = 300

// hopSample times a sample of statements through the router and
// directly against their owner shard (every shard, in parallel, for a
// scatter read), alternating which goes first. The hop is the routed
// median minus the direct one.
func hopSample(e *env, ops []op, l *layers) error {
	ctx := context.Background()
	ring, err := shard.NewRing(shards)
	if err != nil {
		return err
	}
	routed, err := client.Dial(e.routerAddr)
	if err != nil {
		return err
	}
	defer routed.Close()
	direct := make([]*client.Conn, shards)
	for i, n := range e.shards {
		c, err := client.Dial(n.addr)
		if err != nil {
			return err
		}
		defer c.Close()
		direct[i] = c
	}
	runDirect := func(o op) error {
		if o.kind != kindScatter {
			_, _, _, err := runOne(ctx, direct[ring.Owner(o.user)], o)
			return err
		}
		errs := make([]error, shards)
		var wg sync.WaitGroup
		for i := range direct {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, _, _, errs[i] = runOne(ctx, direct[i], o)
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	routedLat := make(map[string][]float64)
	directLat := make(map[string][]float64)
	for i, o := range ops {
		if len(routedLat[o.kind]) >= hopPerKind {
			continue
		}
		timeRouted := func() error {
			_, _, d, err := runOne(ctx, routed, o)
			routedLat[o.kind] = append(routedLat[o.kind], d.Seconds())
			return err
		}
		timeDirect := func() error {
			t := time.Now()
			err := runDirect(o)
			directLat[o.kind] = append(directLat[o.kind], time.Since(t).Seconds())
			return err
		}
		first, second := timeRouted, timeDirect
		if i%2 == 1 {
			first, second = timeDirect, timeRouted
		}
		if err := first(); err != nil {
			return err
		}
		if err := second(); err != nil {
			return err
		}
	}
	// Medians, so that a statement the shared machine stalled does not
	// decide the hop.
	for _, k := range e.w.kinds {
		if len(routedLat[k]) > 0 {
			l.set("shard.hop_us."+k, 1e6*(medianFloat(routedLat[k])-medianFloat(directLat[k])), "us")
		}
	}
	if n := len(routedLat[kindRead]); n > 0 {
		r, d := medianFloat(routedLat[kindRead]), medianFloat(directLat[kindRead])
		l.set("shard.routed_direct_ratio.read", d/r, "ratio")
		fmt.Fprintf(os.Stderr, "routed/direct point-read throughput on one connection: %.3f (%d reads; median %.1fus routed, %.1fus direct)\n",
			d/r, n, r*1e6, d*1e6)
	}
	return nil
}
