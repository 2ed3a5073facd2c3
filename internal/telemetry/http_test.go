package telemetry

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// newTestHandler builds a registry with one of each series kind plus a
// slow-ring entry, and returns its admin handler.
func newTestHandler(t *testing.T) (http.Handler, *Registry) {
	t.Helper()
	reg := NewRegistry()
	var hits atomic.Uint64
	hits.Store(11)
	reg.Counter("hits_total", "cache hits", hits.Load, L("shard", "0"))
	reg.Gauge("rate", "hit rate", func() float64 { return 0.5 })
	h := reg.Histogram("lat_seconds", "latency")
	h.Observe(0.004)
	tr := reg.Tracer("serve", time.Nanosecond, []string{"queue", "exec"})
	var sp Span
	sp.Begin()
	sp.Mark(0)
	sp.Mark(1)
	tr.Finish(&sp)
	return NewHandler(reg), reg
}

// TestHandlerEndpoints walks every admin endpoint and checks content.
func TestHandlerEndpoints(t *testing.T) {
	handler, _ := newTestHandler(t)
	srv := httptest.NewServer(handler)
	defer srv.Close()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	code, body, ctype := get("/metrics")
	if code != 200 || !strings.Contains(ctype, "text/plain") {
		t.Fatalf("/metrics: %d %s", code, ctype)
	}
	for _, want := range []string{`hits_total{shard="0"} 11`, "rate 0.5", "lat_seconds_bucket", `le="+Inf"`} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body, ctype = get("/metrics.json")
	if code != 200 || !strings.Contains(ctype, "application/json") {
		t.Fatalf("/metrics.json: %d %s", code, ctype)
	}
	for _, want := range []string{`"version": 1`, `"hits_total"`, `"p99"`} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics.json missing %q in %s", want, body)
		}
	}

	code, body, _ = get("/slow")
	if code != 200 || !strings.Contains(body, `"serve"`) || !strings.Contains(body, `"queue"`) {
		t.Fatalf("/slow: %d %s", code, body)
	}

	code, body, _ = get("/")
	if code != 200 || !strings.Contains(body, "/metrics.json") || !strings.Contains(body, "hits_total") {
		t.Fatalf("index: %d %s", code, body)
	}

	if code, _, _ = get("/nope"); code != 404 {
		t.Fatalf("unknown path: %d", code)
	}

	code, body, _ = get("/debug/pprof/cmdline")
	if code != 200 || len(body) == 0 {
		t.Fatalf("/debug/pprof/cmdline: %d", code)
	}
	code, body, _ = get("/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: %d", code)
	}
}

// TestStreamSSE reads two events off the SSE endpoint and checks framing.
func TestStreamSSE(t *testing.T) {
	handler, _ := newTestHandler(t)
	srv := httptest.NewServer(handler)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/stream?interval=10ms", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	events := 0
	for sc.Scan() && events < 2 {
		line := sc.Text()
		if strings.HasPrefix(line, "data: ") {
			if !strings.Contains(line, `"version":1`) || !strings.Contains(line, "hits_total") {
				t.Fatalf("bad event: %s", line)
			}
			events++
		}
	}
	if events < 2 {
		t.Fatalf("got %d events, want 2 (%v)", events, sc.Err())
	}
	cancel() // disconnect; the handler must return, not leak
}

// TestStreamBadInterval rejects malformed and non-positive intervals.
func TestStreamBadInterval(t *testing.T) {
	handler, _ := newTestHandler(t)
	srv := httptest.NewServer(handler)
	defer srv.Close()
	for _, q := range []string{"?interval=bogus", "?interval=-1s", "?interval=0s"} {
		resp, err := http.Get(srv.URL + "/stream" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}
