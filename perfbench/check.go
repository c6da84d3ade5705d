package main

import (
	"context"
	"fmt"
	"math"
	"sort"

	"recdb"
	"recdb/internal/dataset"
	"recdb/internal/types"
)

// checkRows checks one answer against what its statement promises. It
// returns nil when the rows are right.
func checkRows(f *facts, o op, rows []types.Row) error {
	switch o.kind {
	case kindTopK, kindFilter, kindJoin:
		if len(rows) > o.k {
			return fmt.Errorf("%d rows, want at most %d", len(rows), o.k)
		}
		prev := math.Inf(1)
		for _, row := range rows {
			item, ok1 := row[0].AsInt()
			score, ok2 := row[1].AsFloat()
			if !ok1 || !ok2 || math.IsNaN(score) {
				return fmt.Errorf("row %v is not (item, score)", row)
			}
			if score > prev {
				return fmt.Errorf("scores not descending: %g after %g", score, prev)
			}
			prev = score
			if _, seen := f.rated[o.user][item]; seen {
				return fmt.Errorf("item %d was rated by user %d at set-up", item, o.user)
			}
			if o.items != nil && !o.items[item] {
				return fmt.Errorf("item %d is not in the IN-list", item)
			}
			if o.genre != "" && f.genre[item] != o.genre {
				return fmt.Errorf("item %d has genre %q, want %q", item, f.genre[item], o.genre)
			}
		}
	case kindRead:
		want := f.rated[o.user]
		if len(rows) != len(want) {
			return fmt.Errorf("user %d: %d rows, want %d", o.user, len(rows), len(want))
		}
		for _, row := range rows {
			item, _ := row[0].AsInt()
			v, ok := row[1].AsFloat()
			if _, rated := want[item]; !rated || !ok || v < 1 || v > 5 {
				return fmt.Errorf("user %d: unexpected row %v", o.user, row)
			}
		}
	case kindScatter:
		if len(rows) > o.k {
			return fmt.Errorf("%d rows, want at most %d", len(rows), o.k)
		}
		for i, row := range rows {
			user, _ := row[0].AsInt()
			item, _ := row[1].AsInt()
			if item != o.item {
				return fmt.Errorf("row %v is not item %d", row, o.item)
			}
			if _, rated := f.rated[user][item]; !rated {
				return fmt.Errorf("row %v is not a rated pair", row)
			}
			if i > 0 && scatterLess(row, rows[i-1]) {
				return fmt.Errorf("rows out of order at %d: %v after %v", i, row, rows[i-1])
			}
		}
	}
	return nil
}

// scatterLess orders scatter rows by rating descending, then user.
func scatterLess(a, b types.Row) bool {
	va, _ := a[2].AsFloat()
	vb, _ := b[2].AsFloat()
	if va != vb {
		return va > vb
	}
	ua, _ := a[0].AsInt()
	ub, _ := b[0].AsInt()
	return ua < ub
}

// checkMaterialized checks, at set-up, that every materialized user's
// IndexRecommend answer equals the FilterRecommend one computed from the
// model.
func checkMaterialized(e *env) error {
	pl := e.db.Engine().Planner()
	for _, u := range e.f.hot() {
		q := fmt.Sprintf(recSelect, "ItemCosCF", u)
		index, err := e.db.Query(q)
		if err != nil {
			return err
		}
		pl.DisableIndexRecommend = true
		filter, err := e.db.Query(q)
		pl.DisableIndexRecommend = false
		if err != nil {
			return err
		}
		if index.Strategy() != "IndexRecommend" || filter.Strategy() != "FilterRecommend" {
			return fmt.Errorf("user %d planned %s and %s, want IndexRecommend and FilterRecommend", u, index.Strategy(), filter.Strategy())
		}
		if err := sameScores(index.All(), filter.All()); err != nil {
			return fmt.Errorf("user %d: IndexRecommend differs from FilterRecommend: %w", u, err)
		}
	}
	return nil
}

// sameScores compares two (item, score) answers as sets.
func sameScores(a, b []types.Row) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows vs %d", len(a), len(b))
	}
	m := make(map[int64]float64, len(a))
	for _, r := range a {
		m[r[0].Int()] = r[1].Float()
	}
	for _, r := range b {
		s, ok := m[r[0].Int()]
		if !ok || math.Abs(s-r[1].Float()) > 1e-9 {
			return fmt.Errorf("item %d: %g vs %g", r[0].Int(), s, r[1].Float())
		}
	}
	return nil
}

// checkRouted builds the single-node reference from the generated data,
// compares the kept routed answers with it, and closes it. It runs after
// the measured window, outside set-up, so the reference is in neither
// setup_s nor heap_mb.
func checkRouted(data *dataset.Data, refs []answer) error {
	ref, err := singleNode(data)
	defer ref.Close()
	if err != nil {
		return err
	}
	for _, a := range refs {
		if err := checkReference(ref, a.o, a.rows); err != nil {
			return err
		}
	}
	return nil
}

// checkReference compares a routed answer with the single-node
// reference database's answer to the same statement. Point reads are
// compared as sets, since heap order differs between a shard and the
// single node; scatter answers are totally ordered and compared in
// order.
func checkReference(ref *recdb.DB, o op, got []types.Row) error {
	want, err := ref.QueryContext(context.Background(), o.sql)
	if err != nil {
		return err
	}
	a, b := canon(got), canon(want.All())
	if o.kind == kindRead {
		sort.Strings(a)
		sort.Strings(b)
	}
	if len(a) != len(b) {
		return fmt.Errorf("%q: routed %d rows, reference %d", o.sql, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("%q: row %d routed %s, reference %s", o.sql, i, a[i], b[i])
		}
	}
	return nil
}

func canon(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	return out
}

// checkDurable reopens the durable home after rate-and-read and checks
// that every acknowledged re-rating's last value is there.
func checkDurable(home string, last map[[2]int64]float64) error {
	db, err := recdb.OpenDir(home)
	if err != nil {
		return fmt.Errorf("reopening the durable home: %w", err)
	}
	defer db.Close()
	byUser := make(map[int64]map[int64]float64)
	for p, v := range last {
		if byUser[p[0]] == nil {
			byUser[p[0]] = make(map[int64]float64)
		}
		byUser[p[0]][p[1]] = v
	}
	for u, want := range byUser {
		rows, err := db.Query(fmt.Sprintf(`SELECT iid, ratingval FROM ratings WHERE uid = %d`, u))
		if err != nil {
			return err
		}
		got := make(map[int64]float64)
		for _, r := range rows.All() {
			got[r[0].Int()] = r[1].Float()
		}
		for item, v := range want {
			if got[item] != v {
				return fmt.Errorf("after reopening, user %d item %d reads %g, last acknowledged %g", u, item, got[item], v)
			}
		}
	}
	return nil
}
