package metrics

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
)

// Handler serves the snapshots snap takes over HTTP:
//
//	/metrics       sorted "name value" text lines (Snapshot.String)
//	/metrics.json  expvar-style JSON: counters and gauges as numbers,
//	/debug/vars    histograms as {count, sum, mean, p50, p99} objects
//
// Every request takes a fresh snapshot; the instruments themselves are
// lock-free, so scraping never stalls the traffic they measure.
func Handler(snap func() Snapshot) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, snap().String())
	})
	serveJSON := func(w http.ResponseWriter, _ *http.Request) {
		s := snap()
		vars := make(map[string]any, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
		for _, c := range s.Counters {
			vars[c.Name] = c.Value
		}
		for _, g := range s.Gauges {
			vars[g.Name] = g.Value
		}
		for _, h := range s.Histograms {
			vars[h.Name] = map[string]any{
				"count": h.Count, "sum": h.Sum, "mean": h.Mean(),
				"p50": h.Quantile(0.50), "p99": h.Quantile(0.99),
			}
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(vars)
	}
	mux.HandleFunc("/metrics.json", serveJSON)
	mux.HandleFunc("/debug/vars", serveJSON)
	return mux
}

// Serve starts Handler(snap) on a listener at addr and returns the bound
// address and a stop function. It serves in the background until
// stopped; serve errors after stop are ignored.
func Serve(addr string, snap func() Snapshot) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("metrics: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: Handler(snap)}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}
