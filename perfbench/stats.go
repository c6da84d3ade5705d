package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"
)

// rng is a splitmix64 generator. The benchmark's inputs come from it
// alone, so a stream is the same on every Go version and platform.
type rng struct{ state uint64 }

// newRNG derives an independent generator from the seed and a stream
// label.
func newRNG(seed int64, label string, index int) *rng {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, label, index)
	return &rng{state: h.Sum64()}
}

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// sample returns k distinct indices from [0, n) in draw order.
func (r *rng) sample(n, k int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:k]
}

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: with fewer, the value is one or two outliers, not a
// percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-th percentile (0 < q < 100) of
// samples: the smallest sample with at least q% of all samples at or
// below it. It refuses when fewer than minBeyond samples lie above that
// rank.
func percentile(samples []time.Duration, q float64) (time.Duration, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", q)
	}
	rank := int(math.Ceil(q / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it; need %d", q, n, beyond, minBeyond)
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[rank-1], nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(ns float64) float64 { return ns / float64(time.Microsecond) }

func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
