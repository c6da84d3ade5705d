// Command perfbench is RecDB's serving benchmark. It builds one named
// workload from a seed, serves it over loopback TCP through recdb's
// server (and, for routed-read, the shard router), drives it with a
// closed loop of client connections, checks every answer, and prints
// its metrics as one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload paper-recommend --seed 1 --seconds 35 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of a timed run of
// --seconds; with --trace 1 it replays a fixed number of the workload's
// statements on one connection, with and without spans, and reports
// per-layer metrics. It runs from the checkout root, whose
// BENCHMARK.json lists the metrics. WORKLOADS.md describes the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times a timed run builds its system; setup_s
// is the median.
const setupReps = 5

// warmup lets lazily built state (decoded IVF indexes, pool pages,
// connections) settle before the measured window.
const warmup = 2 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: paper-recommend, rate-and-read or routed-read")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 35, "length of a timed run's measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics of a timed run; 1: per-layer metrics of a traced replay")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int) error {
	w, err := workloadNamed(name)
	if err != nil {
		return err
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	// Durable homes and traces live in the checkout, under the build
	// directory.
	dir := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	reps := setupReps
	if trace == 1 {
		reps = 1 // a traced run reports no setup_s
	}
	e, setupSecs, err := timedSetup(w, seed, dir, reps)
	if err != nil {
		return err
	}
	defer e.close()
	fmt.Fprintf(os.Stderr, "%s seed %d: set-up %.3fs (each %v)\n", w.name, seed, medianFloat(setupSecs), setupSecs)

	var rep *report
	if trace == 0 {
		rep, err = timedRun(e, seed, time.Duration(seconds)*time.Second)
	} else {
		rep, err = tracedRun(e, seed, filepath.Join(".bench_build", "perfbench", "traces"))
	}
	if err != nil {
		return err
	}
	if trace == 0 {
		rep.Metrics["setup_s"] = metric{medianFloat(setupSecs), "s"}
		err = conform(rep, sp.EndToEnd, true)
	} else {
		err = conform(rep, sp.PerLayer, false)
	}
	if err != nil {
		return err
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !rep.Correct {
		return fmt.Errorf("an output check failed")
	}
	return nil
}

// timedRun measures the end-to-end metrics. It closes e before the
// durability check, which reopens the durable home.
func timedRun(e *env, seed int64, measure time.Duration) (*report, error) {
	before := snapshots(e)
	var ru0, ru1 syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
	res, err := drive(e, seed, warmup, measure)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	cpu := func(r syscall.Rusage) float64 {
		return float64(r.Utime.Nano()+r.Stime.Nano()) / 1e9
	}
	fmt.Fprintf(os.Stderr, "  process CPU %.2fs over warm-up and window\n", cpu(ru1)-cpu(ru0))
	if err != nil {
		return nil, err
	}
	rebuilds := deltas(before, snapshots(e))["rec.builds"]

	// A failed statement fails the run like a wrong answer: errs holds
	// the first failures, warm-up included.
	checkErr := res.checkErr
	if checkErr == nil && len(res.errs) > 0 {
		checkErr = fmt.Errorf("%d statements of %d measured failed", res.failed, res.attempted)
	}
	for _, msg := range res.errs {
		fmt.Fprintln(os.Stderr, "statement failed:", msg)
	}
	if checkErr == nil && e.w.routed {
		checkErr = checkRouted(e.f.data, res.refs)
	}
	rep := &report{Attempted: res.attempted, Failed: res.failed}
	if rep.Metrics, err = latencyMetrics(res, measure); err != nil {
		return nil, err
	}
	describe(e.w, res, rebuilds)

	// The live heap is the served system's: the samples and kept
	// answers go first.
	refs, lastWrite := len(res.refs), res.lastWrite
	res = nil
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	rep.Metrics["heap_mb"] = metric{float64(mem.HeapAlloc) / (1 << 20), "MB"}

	if e.w.routed {
		fmt.Fprintf(os.Stderr, "  %d routed answers compared with the single-node reference\n", refs)
	}
	if checkErr == nil && slices.Contains(e.w.kinds, kindWrite) {
		e.close()
		checkErr = checkDurable(e.home, lastWrite)
	}
	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "output check failed:", checkErr)
	}
	rep.Correct = checkErr == nil
	for _, name := range sortedKeys(rep.Metrics) {
		fmt.Fprintf(os.Stderr, "  %s %.4f %s\n", name, rep.Metrics[name].Value, rep.Metrics[name].Unit)
	}
	return rep, nil
}

// latencyMetrics computes throughput and the nearest-rank latency
// percentiles over the whole measured window.
func latencyMetrics(res *result, measure time.Duration) (map[string]metric, error) {
	var all []time.Duration
	for _, l := range res.lat {
		all = append(all, l...)
	}
	m := map[string]metric{"ops_per_s": {float64(len(all)) / measure.Seconds(), "1/s"}}
	for _, c := range []struct {
		name string
		s    []time.Duration
		q    float64
	}{{"p50_ms", all, 50}, {"topk_p50_ms", res.lat[kindTopK], 50}, {"topk_p99_ms", res.lat[kindTopK], 99}} {
		v, err := percentile(c.s, c.q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w; raise --seconds", c.name, err)
		}
		m[c.name] = metric{ms(v), "ms"}
	}
	return m, nil
}

// describe prints every kind's latency, the error rate and the
// workload's measured properties to standard error, for people and for
// WORKLOADS.md.
func describe(w *workload, res *result, rebuilds int64) {
	completed := 0
	for _, l := range res.lat {
		completed += len(l)
	}
	fmt.Fprintf(os.Stderr, "%s: %d statements in %.2fs, error_rate %.4f\n",
		w.name, res.attempted, res.elapsed.Seconds(), float64(res.failed)/float64(max(res.attempted, 1)))
	for _, k := range w.kinds {
		l := res.lat[k]
		p50, _ := percentile(l, 50)
		line := fmt.Sprintf("  %s_p50_ms %.3f", k, ms(p50))
		if p99, err := percentile(l, 99); err == nil {
			line += fmt.Sprintf("  %s_p99_ms %.3f", k, ms(p99))
		}
		fmt.Fprintf(os.Stderr, "%s  (n=%d, share %.3f)\n", line, len(l), float64(len(l))/float64(max(completed, 1)))
	}
	if res.itemCF > 0 {
		fmt.Fprintf(os.Stderr, "  recindex.hit_share %.3f (%d IndexRecommend of %d ItemCosCF recommends)\n",
			float64(res.indexed)/float64(res.itemCF), res.indexed, res.itemCF)
	}
	if rebuilds > 0 {
		fmt.Fprintf(os.Stderr, "  rec.builds %d in the warm-up and measured window (%d models per rebuild cycle)\n", rebuilds, len(w.models))
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
