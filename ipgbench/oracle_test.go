package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ipg/internal/serve"
)

// smallPlan is workload w's plan cut to its priming requests and the
// first n of its sequence, so the oracle stays cheap.
func smallPlan(t *testing.T, w string, n int) *Plan {
	t.Helper()
	p, err := Generate(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Requests = p.Requests[:n]
	return p
}

// serveResponses answers every request of the plan, priming first, from
// an in-process ipgd handler configured like the benchmark's child.
func serveResponses(t *testing.T, p *Plan) map[string][]byte {
	t.Helper()
	srv := httptest.NewServer(serve.NewServer(serve.Config{CacheBytes: int64(p.CacheMB) << 20, CacheShards: p.Shards}))
	defer srv.Close()
	out := map[string][]byte{}
	for _, list := range [][]Request{p.Prime, p.Requests} {
		for _, req := range list {
			resp, err := http.Get(srv.URL + req.Path)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d: %s", req.Path, resp.StatusCode, body)
			}
			out[req.Path] = body
		}
	}
	return out
}

func TestOracleAcceptsTheDaemon(t *testing.T) {
	for _, w := range workloadNames {
		p := smallPlan(t, w, 60)
		o, err := NewOracle(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		bodies := serveResponses(t, p)
		for _, list := range [][]Request{p.Prime, p.Requests} {
			for _, req := range list {
				if err := o.Check(req, http.StatusOK, bodies[req.Path]); err != nil {
					t.Errorf("%s: %s: %v", w, req.Path, err)
				}
			}
		}
	}
}

// corruptJSON decodes body, applies edit, and re-encodes it.
func corruptJSON(t *testing.T, body []byte, edit func(m map[string]any)) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	edit(m)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestOracleFlagsCorruptedResponses(t *testing.T) {
	covered := map[string]bool{}
	for _, w := range workloadNames {
		p := smallPlan(t, w, 60)
		o, err := NewOracle(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		bodies := serveResponses(t, p)
		corrupt := map[string]func(body []byte) []byte{
			"metrics": func(b []byte) []byte {
				return []byte(strings.Replace(string(b), `"nodes": `, `"nodes": 1`, 1))
			},
			"fmetrics": func(b []byte) []byte {
				return []byte(strings.Replace(string(b), `"alive": `, `"alive": 1`, 1))
			},
			"build": func(b []byte) []byte {
				return corruptJSON(t, b, func(m map[string]any) { m["cached"] = false })
			},
			"healthz": func(b []byte) []byte { return []byte(`{"status":"degraded"}` + "\n") },
			"route": func(b []byte) []byte {
				return corruptJSON(t, b, func(m map[string]any) {
					path := m["path"].([]any)
					// A path that jumps straight to dst: right ends, wrong
					// length or a non-edge.
					m["path"] = []any{path[0], path[len(path)-1]}
					m["hops"] = 1
				})
			},
			"multipath": func(b []byte) []byte {
				return corruptJSON(t, b, func(m map[string]any) {
					mp := m["multipath"].(map[string]any)
					first := mp["paths"].([]any)[0].(map[string]any)
					first["alive"] = !first["alive"].(bool)
				})
			},
			"simulate": func(b []byte) []byte {
				return corruptJSON(t, b, func(m map[string]any) { m["delivered"] = m["delivered"].(float64) + 1 })
			},
			"fsimulate": func(b []byte) []byte {
				return corruptJSON(t, b, func(m map[string]any) { m["injected"] = m["injected"].(float64) + 1 })
			},
		}
		tried := map[string]bool{}
		for _, req := range p.Requests {
			if tried[req.Class] {
				continue
			}
			body := bodies[req.Path]
			if req.Class == "route" {
				var r serve.RouteResponse
				if err := json.Unmarshal(body, &r); err != nil {
					t.Fatal(err)
				}
				if r.Hops < 2 {
					continue // the corruption needs a path with an interior node
				}
			}
			tried[req.Class] = true
			covered[req.Class] = true
			if err := o.Check(req, http.StatusOK, corrupt[req.Class](body)); err == nil {
				t.Errorf("%s: corrupted %s response passed the oracle", w, req.Class)
			}
			if err := o.Check(req, http.StatusServiceUnavailable, body); err == nil {
				t.Errorf("%s: a 503 %s passed the oracle", w, req.Class)
			}
		}
	}
	for _, class := range []string{"healthz", "build", "metrics", "route", "simulate", "fmetrics", "fsimulate", "multipath"} {
		if !covered[class] {
			t.Errorf("no %s response was corrupted", class)
		}
	}
}
