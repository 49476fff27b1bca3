package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
)

// This file exposes a Registry (and optionally a Tracer) over HTTP:
//
//	/metrics  Prometheus text exposition format
//	/vars     the Snapshot as JSON (expvar-style, one GET = one scrape)
//	/events   the tracer's recent spans as JSON
//
// The handler is read-only and allocation-bounded by the registry
// size; callers mount it on whatever mux/port they choose
// (internal/serve mounts the Matcher's beside its own routes, and
// cmd/emserve serves those with net/http/pprof on one address).

// Handler serves the registry (and tracer, when non-nil) as described
// in the file comment. The root path serves a short index.
func Handler(r *Registry, t *Tracer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, r)
	})
	mux.HandleFunc("/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(r.Snapshot())
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		type jsonEvent struct {
			Name    string `json:"name"`
			Label   string `json:"label,omitempty"`
			Start   string `json:"start"`
			DurNano int64  `json:"dur_ns"`
		}
		evs := t.Recent()
		out := make([]jsonEvent, 0, len(evs))
		for _, ev := range evs {
			out = append(out, jsonEvent{Name: ev.Name, Label: ev.Label, Start: ev.Start.Format("2006-01-02T15:04:05.000000Z07:00"), DurNano: int64(ev.Dur)})
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(out)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		io.WriteString(w, "graphkeys observability\n\n/metrics  Prometheus text\n/vars     JSON snapshot\n/events   recent trace spans\n")
	})
	return mux
}

// promName rewrites a dotted metric name into the Prometheus
// identifier charset (dots and dashes become underscores).
func promName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			return r
		default:
			return '_'
		}
	}, name)
}

// WritePrometheus renders every instrument of the registry in the
// Prometheus text exposition format. Histograms emit cumulative
// _bucket series plus _sum and _count, so standard quantile tooling
// (histogram_quantile) works unchanged; the precomputed p50/p99 ride
// along as separate gauges for humans reading the page raw.
func WritePrometheus(w io.Writer, r *Registry) {
	if r == nil {
		return
	}
	r.mu.Lock()
	metrics := make([]*metric, len(r.ordered))
	copy(metrics, r.ordered)
	r.mu.Unlock()
	sort.Slice(metrics, func(i, j int) bool { return metrics[i].name < metrics[j].name })
	for _, m := range metrics {
		name := promName(m.name)
		if m.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", name, m.help)
		}
		switch {
		case m.c != nil:
			fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, m.c.Value())
		case m.g != nil:
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, m.g.Value())
		case m.h != nil:
			s := m.h.Snapshot()
			fmt.Fprintf(w, "# TYPE %s histogram\n", name)
			var cum uint64
			for _, b := range s.Buckets {
				cum += b.Count
				le := "+Inf"
				if b.UpperBound != int64(^uint64(0)>>1) {
					le = fmt.Sprint(b.UpperBound)
				}
				fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum)
			}
			fmt.Fprintf(w, "%s_sum %d\n", name, s.Sum)
			fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
			fmt.Fprintf(w, "%s_p50 %d\n", name, s.P50)
			fmt.Fprintf(w, "%s_p99 %d\n", name, s.P99)
		}
	}
}
