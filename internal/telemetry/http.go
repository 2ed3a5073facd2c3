package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"
)

// NewHandler returns the admin HTTP handler for a registry — what
// tensorserve's -metrics-addr flag serves (`tensorserve serve ADDR
// -metrics-addr :9090`, and likewise for run, shard, route and chaos):
//
//	/             index page listing the endpoints and registered series
//	/metrics      Prometheus text exposition format
//	/metrics.json the versioned JSON Snapshot
//	/slow         the slow-request ring, newest first, per-hop breakdowns
//	/stream       SSE stream of JSON snapshots (?interval=1s to tune)
//	/debug/pprof/ the standard Go profiling endpoints
//
// The handler only reads; it never blocks the serving hot path beyond the
// atomic loads a snapshot takes.
func NewHandler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, r.PromText())
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(r.Snapshot())
	})
	mux.HandleFunc("/slow", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(r.SlowRequests())
	})
	mux.HandleFunc("/stream", func(w http.ResponseWriter, req *http.Request) {
		serveStream(r, w, req)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "tensordimm admin endpoint")
		fmt.Fprintln(w, "  /metrics       Prometheus text exposition")
		fmt.Fprintln(w, "  /metrics.json  versioned JSON snapshot")
		fmt.Fprintln(w, "  /slow          recent slow requests with per-hop breakdowns")
		fmt.Fprintln(w, "  /stream        SSE snapshot stream (?interval=1s)")
		fmt.Fprintln(w, "  /debug/pprof/  Go profiling")
		fmt.Fprintln(w, "")
		fmt.Fprintln(w, "registered series:")
		for _, n := range r.sortedSeriesNames() {
			fmt.Fprintf(w, "  %s\n", n)
		}
	})
	return mux
}

// serveStream implements the SSE endpoint: one `data:` event per interval
// carrying the full JSON snapshot, until the client disconnects. A
// watcher sees per-shard hit rates, sheds, breaker state, WAL bytes, and
// p99 evolve live:
//
//	curl -N http://host:port/stream?interval=500ms
func serveStream(r *Registry, w http.ResponseWriter, req *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	interval := time.Second
	if v := req.URL.Query().Get("interval"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			http.Error(w, "bad interval: want a positive Go duration like 500ms", http.StatusBadRequest)
			return
		}
		interval = d
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	send := func() bool {
		data, err := json.Marshal(r.Snapshot())
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	if !send() {
		return
	}
	for {
		select {
		case <-req.Context().Done():
			return
		case <-ticker.C:
			if !send() {
				return
			}
		}
	}
}
