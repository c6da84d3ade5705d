package main

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"recdb/internal/dataset"
)

func streamOf(t *testing.T, w *workload, seed int64, conn, n int) []string {
	t.Helper()
	spec := dataset.MovieLens.Scaled(dataScale)
	spec.Seed = seed
	g := newGen(newFacts(dataset.Generate(spec)), seed, w, conn, conns)
	out := make([]string, n)
	for i := range out {
		out[i] = w.next(g).sql
	}
	return out
}

func TestStreamDependsOnlyOnSeed(t *testing.T) {
	for _, w := range workloads {
		a := streamOf(t, w, 7, 0, 300)
		b := streamOf(t, w, 7, 0, 300)
		if strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Errorf("%s: seed 7 gave two different streams", w.name)
		}
		if c := streamOf(t, w, 8, 0, 300); strings.Join(a, "\n") == strings.Join(c, "\n") {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
		if c := streamOf(t, w, 7, 1, 300); strings.Join(a, "\n") == strings.Join(c, "\n") {
			t.Errorf("%s: connections 0 and 1 got the same stream", w.name)
		}
	}
}

func TestStreamMix(t *testing.T) {
	for _, w := range workloads {
		spec := dataset.MovieLens.Scaled(dataScale)
		spec.Seed = 3
		f := newFacts(dataset.Generate(spec))
		g := newGen(f, 3, w, 0, 1)
		seen := make(map[string]int)
		for i := 0; i < 3000; i++ {
			seen[w.next(g).kind]++
		}
		if len(seen) != len(w.kinds) {
			t.Errorf("%s issued kinds %v, want %v", w.name, seen, w.kinds)
		}
		for _, k := range w.kinds {
			if seen[k] < 200 {
				t.Errorf("%s issued %d %s statements of 3000", w.name, seen[k], k)
			}
		}
	}
}

func millis(ns ...int) []time.Duration {
	out := make([]time.Duration, len(ns))
	for i, n := range ns {
		out[i] = time.Duration(n) * time.Millisecond
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	var s []time.Duration
	for i := 1000; i >= 1; i-- { // unsorted on purpose
		s = append(s, time.Duration(i)*time.Millisecond)
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{50, 500 * time.Millisecond}, {99, 990 * time.Millisecond}, {90, 900 * time.Millisecond}} {
		got, err := percentile(s, c.q)
		if err != nil || got != c.want {
			t.Errorf("p%g = %v, %v; want %v", c.q, got, err, c.want)
		}
	}
	// Nearest rank picks a sample, never an interpolation.
	got, err := percentile(millis(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21), 50)
	if err != nil || got != 11*time.Millisecond {
		t.Errorf("p50 of 1..21 = %v, %v; want 11ms", got, err)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	mk := func(n int) []time.Duration {
		s := make([]time.Duration, n)
		for i := range s {
			s[i] = time.Duration(i + 1)
		}
		return s
	}
	if _, err := percentile(mk(999), 99); err == nil {
		t.Error("p99 of 999 samples (9 beyond) was reported")
	}
	if _, err := percentile(mk(1000), 99); err != nil {
		t.Errorf("p99 of 1000 samples (10 beyond): %v", err)
	}
	if _, err := percentile(mk(19), 50); err == nil {
		t.Error("p50 of 19 samples (9 beyond) was reported")
	}
	if _, err := percentile(mk(20), 50); err != nil {
		t.Errorf("p50 of 20 samples: %v", err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("p50 of no samples was reported")
	}
}

func TestOperatorSelf(t *testing.T) {
	name, d, ok := operatorSelf("    SeqScan on ratings as r (1 pages) (actual rows=7 loops=1 time=1.5ms self=250µs buffers hit=1 miss=0)")
	if !ok || name != "SeqScan" || d != 250*time.Microsecond {
		t.Errorf("got %q %v %v", name, d, ok)
	}
	if _, _, ok := operatorSelf("Execution time: 3ms"); ok {
		t.Error("parsed a line without self time")
	}
}

// repeatable are the per-layer counts two traced runs at one seed must
// give exactly: later changes may rest a claim on them.
func repeatable(name string) bool {
	for _, p := range []string{"plan.share.", "bufferpool.hits_per_op.", "wal.syncs_per_write", "rec.rebuilds_per_1k_writes", "exec.rows_per_op."} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return strings.HasPrefix(name, "ann.") && strings.HasSuffix(name, "_per_query")
}

// TestTracedCountsRepeat is the benchmark's self-check: two traced
// runs of every workload at one seed give identical counts.
func TestTracedCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's traced replay twice")
	}
	for _, w := range workloads {
		var runs []map[string]metric
		for i := 0; i < 2; i++ {
			e, err := setup(w, 5, filepath.Join(t.TempDir(), "home"))
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			rep, err := tracedRun(e, 5, t.TempDir())
			e.close()
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Fatalf("%s: traced run correct=%v failed=%d", w.name, rep.Correct, rep.Failed)
			}
			runs = append(runs, rep.Metrics)
		}
		checked := 0
		for name, m := range runs[0] {
			if !repeatable(name) {
				continue
			}
			checked++
			if o, ok := runs[1][name]; !ok || o.Value != m.Value {
				t.Errorf("%s: %s = %v, then %v", w.name, name, m.Value, o.Value)
			}
		}
		for name := range runs[1] {
			if _, ok := runs[0][name]; repeatable(name) && !ok {
				t.Errorf("%s: %s appeared only in the second run", w.name, name)
			}
		}
		if checked == 0 {
			t.Errorf("%s: no repeatable counts", w.name)
		}
	}
}
