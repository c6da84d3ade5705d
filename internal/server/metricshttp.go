package server

import (
	"net/http"

	"recdb"
	"recdb/internal/metrics"
)

// MetricsHandler serves db's metrics over HTTP; see metrics.Handler.
func MetricsHandler(db *recdb.DB) http.Handler {
	return metrics.Handler(db.Engine().Metrics().Snapshot)
}

// ServeMetrics starts the metrics HTTP listener on addr and returns the
// bound address and a stop function; see metrics.Serve.
func ServeMetrics(db *recdb.DB, addr string) (string, func() error, error) {
	return metrics.Serve(addr, db.Engine().Metrics().Snapshot)
}
