package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"ipg/internal/cluster"
)

// clusterReplica is one in-process ipgd replica in a test cluster.
type clusterReplica struct {
	url string
	ts  *httptest.Server
	srv *Server
	cb  *countingBuilder
	cl  *cluster.Cluster
}

// startTestCluster boots n in-process replicas that all know each other.
// Listeners are bound first so every replica's URL is known before any
// cluster config is built — the same order a static -peers deployment
// uses.  mutate (optional) adjusts each replica's serve.Config.
func startTestCluster(t *testing.T, n int, ccfg cluster.Config, mutate func(i int, cfg *Config)) []*clusterReplica {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	replicas := make([]*clusterReplica, n)
	for i := range replicas {
		cc := ccfg
		cc.Self = urls[i]
		cc.Peers = urls
		cl, err := cluster.New(cc)
		if err != nil {
			t.Fatal(err)
		}
		cb := newCountingBuilder()
		cfg := Config{
			Workers:    8,
			QueueDepth: 32,
			Builder:    cb.build,
			Cluster:    cl,
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		srv := NewServer(cfg)
		ts := httptest.NewUnstartedServer(srv)
		ts.Listener.Close()
		ts.Listener = lns[i]
		ts.Start()
		t.Cleanup(ts.Close)
		replicas[i] = &clusterReplica{url: urls[i], ts: ts, srv: srv, cb: cb, cl: cl}
	}
	return replicas
}

// goldenQueries are the eight golden families every serving test uses;
// their canonical keys are pinned by TestParamsKeyGolden.
var goldenQueries = []string{
	"net=hsn&l=2&nucleus=q2",
	"net=hsn&l=3&nucleus=q2",
	"net=ring-cn&l=3&nucleus=q2",
	"net=complete-cn&l=3&nucleus=q2",
	"net=sfn&l=3&nucleus=q2",
	"net=hypercube&dim=6&logm=2",
	"net=torus&k=8&side=2",
	"net=ccc&dim=4",
}

func goldenKey(t *testing.T, query string) string {
	t.Helper()
	q, err := url.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := ParamsFromQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	return p.Key()
}

// getRaw issues one plain GET (a client request: no fill header) and
// returns status and body.
func getRaw(t *testing.T, rawURL string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(rawURL)
	if err != nil {
		t.Fatalf("GET %s: %v", rawURL, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", rawURL, err)
	}
	return resp.StatusCode, body
}

// TestClusterKillTolerance is the cluster acceptance test.  Three
// in-process replicas serve concurrent mixed traffic over all eight
// golden families; the healthy phase must perform exactly one build per
// key cluster-wide and return byte-identical metrics documents from
// every replica.  Then one replica that owns at least one key is killed
// mid-run: traffic against the survivors must see zero 5xx, ownership of
// the victim's keys must rehash onto the survivors, and the rebuilt
// documents must be byte-identical to the pre-kill ones.
func TestClusterKillTolerance(t *testing.T) {
	// No timer hedge: under -race an owner's build can outlast the
	// default delay, and a hedge leg would build the key a second time.
	// Failover on a refused connection (the kill phase) does not use the
	// timer; TestHedgeWinsAgainstSlowOwner covers the hedge.
	replicas := startTestCluster(t, 3, cluster.Config{
		HedgeDelay:       -1,
		BreakerThreshold: 1, // first refused connection cuts the peer out
		BreakerCooldown:  time.Hour,
	}, nil)

	// Phase 1: concurrent mixed /v1/build traffic over every family,
	// spread across all replicas.
	const perKey = 6
	total := perKey * len(goldenQueries)
	codes := make([]int, total)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := goldenQueries[i%len(goldenQueries)]
			r := replicas[i%len(replicas)]
			codes[i], _ = getRaw(t, r.url+"/v1/build?"+q)
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("phase 1 request %d (%s): HTTP %d", i, goldenQueries[i%len(goldenQueries)], c)
		}
	}

	// Exactly one build per key cluster-wide: sum the per-replica build
	// counters.
	for _, q := range goldenQueries {
		key := goldenKey(t, q)
		sum := 0
		for _, r := range replicas {
			sum += r.cb.count(key)
		}
		if sum != 1 {
			for _, r := range replicas {
				t.Logf("  %s built %q %d times", r.url, key, r.cb.count(key))
			}
			t.Fatalf("key %q built %d times cluster-wide, want exactly 1", key, sum)
		}
	}

	// Byte-identical metrics documents from every replica.
	phase1 := make(map[string][]byte, len(goldenQueries))
	for _, q := range goldenQueries {
		for _, r := range replicas {
			code, body := getRaw(t, r.url+"/v1/metrics?"+q+"&diameter=1")
			if code != http.StatusOK {
				t.Fatalf("phase 1 metrics %s from %s: HTTP %d", q, r.url, code)
			}
			if want, seen := phase1[q]; seen {
				if !bytes.Equal(body, want) {
					t.Fatalf("metrics %s from %s differ from the first replica's bytes", q, r.url)
				}
			} else {
				phase1[q] = body
			}
		}
	}

	// Pick the victim: a replica that owns at least one golden key (the
	// one owning the most, so the rehash moves real load).
	owned := make(map[string][]string) // replica URL -> keys
	for _, q := range goldenQueries {
		key := goldenKey(t, q)
		owner := replicas[0].cl.Owner(key)
		owned[owner] = append(owned[owner], key)
	}
	var victim *clusterReplica
	for _, r := range replicas {
		if victim == nil || len(owned[r.url]) > len(owned[victim.url]) {
			victim = r
		}
	}
	if len(owned[victim.url]) == 0 {
		t.Fatal("no replica owns any golden key; test vacuous")
	}
	victimKeys := owned[victim.url]
	var survivors []*clusterReplica
	for _, r := range replicas {
		if r != victim {
			survivors = append(survivors, r)
		}
	}
	t.Logf("killing %s (owns %d/%d golden keys)", victim.url, len(victimKeys), len(goldenQueries))
	victim.ts.Close()

	// Drain pass: one /v1/build per family per survivor.  The very first
	// fetch toward the dead owner is refused, opens its circuit on the
	// requester, and falls back to a local build — so even the drain
	// window must be free of 5xx.
	for _, r := range survivors {
		for _, q := range goldenQueries {
			code, body := getRaw(t, r.url+"/v1/build?"+q)
			if code >= 500 {
				t.Fatalf("drain: /v1/build?%s on %s: HTTP %d: %s", q, r.url, code, body)
			}
		}
	}

	// Ownership of every victim key must have rehashed onto a survivor,
	// and every survivor must agree it moved.
	for _, key := range victimKeys {
		for _, r := range survivors {
			var cs ClusterResponse
			code, body := getRaw(t, r.url+"/v1/cluster?key="+url.QueryEscape(key))
			if code != http.StatusOK {
				t.Fatalf("/v1/cluster on %s: HTTP %d", r.url, code)
			}
			if err := json.Unmarshal(body, &cs); err != nil {
				t.Fatal(err)
			}
			if cs.Owner == victim.url {
				t.Fatalf("survivor %s still assigns %q to the dead replica", r.url, key)
			}
		}
	}

	// Strict pass: concurrent mixed traffic on the survivors, zero 5xx,
	// and every rebuilt document byte-identical to its pre-kill bytes.
	const perKey2 = 4
	total2 := perKey2 * len(goldenQueries)
	codes2 := make([]int, total2)
	bodies2 := make([][]byte, total2)
	for i := 0; i < total2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := goldenQueries[i%len(goldenQueries)]
			r := survivors[i%len(survivors)]
			codes2[i], bodies2[i] = getRaw(t, r.url+"/v1/metrics?"+q+"&diameter=1")
		}(i)
	}
	wg.Wait()
	for i := 0; i < total2; i++ {
		q := goldenQueries[i%len(goldenQueries)]
		if codes2[i] != http.StatusOK {
			t.Errorf("post-kill metrics %s: HTTP %d", q, codes2[i])
			continue
		}
		if !bytes.Equal(bodies2[i], phase1[q]) {
			t.Errorf("post-kill metrics %s not byte-identical to the pre-kill document", q)
		}
	}
}

// gateBuilder blocks builds of one key until released, so a test can
// saturate an owner's single-worker pool on demand.
type gateBuilder struct {
	gateKey string
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gateBuilder) build(ctx context.Context, p Params, maxNodes int) (*Artifact, error) {
	if p.Key() == g.gateKey {
		g.once.Do(func() { close(g.entered) })
		select {
		case <-g.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return BuildArtifact(ctx, p, maxNodes)
}

// twoKeysSameOwner returns two golden queries whose keys hash to the
// same owner (pigeonhole guarantees one exists for a 2-replica ring).
func twoKeysSameOwner(t *testing.T, cl *cluster.Cluster) (qa, qb, owner string) {
	t.Helper()
	byOwner := make(map[string][]string)
	for _, q := range goldenQueries {
		o := cl.Owner(goldenKey(t, q))
		byOwner[o] = append(byOwner[o], q)
		if len(byOwner[o]) == 2 {
			return byOwner[o][0], byOwner[o][1], o
		}
	}
	t.Fatal("no owner with two golden keys")
	return "", "", ""
}

// TestClusterRetryAfterThroughFill checks end-to-end 503 pass-through: a
// saturated owner's backpressure response — status AND Retry-After —
// must reach the client unchanged when forwarded through a non-owner,
// and must never be cached as if it were the document.
func TestClusterRetryAfterThroughFill(t *testing.T) {
	gate := &gateBuilder{entered: make(chan struct{}), release: make(chan struct{})}
	replicas := startTestCluster(t, 2, cluster.Config{
		HedgeDelay:      -1,
		BreakerCooldown: time.Hour,
	}, func(i int, cfg *Config) {
		cfg.Workers = 1
		cfg.QueueDepth = -1 // no waiting: saturation answers 503 immediately
		cfg.Builder = gate.build
	})

	qSlow, qTest, ownerURL := twoKeysSameOwner(t, replicas[0].cl)
	gate.gateKey = goldenKey(t, qSlow)
	var owner, other *clusterReplica
	for _, r := range replicas {
		if r.url == ownerURL {
			owner = r
		} else {
			other = r
		}
	}

	// Occupy the owner's only worker with a gated build.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		code, _ := getRaw(t, owner.url+"/v1/build?"+qSlow)
		if code != http.StatusOK {
			t.Errorf("gated build finished with HTTP %d", code)
		}
	}()
	<-gate.entered

	// A client asking the non-owner is forwarded to the saturated owner;
	// the 503 and its Retry-After must come back through the fill intact.
	resp, err := http.Get(other.url + "/v1/metrics?" + qTest + "&diameter=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("through-fill status = %d (%s), want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("Retry-After lost in the fill path")
	}
	if via := resp.Header.Get(cluster.ViaHeader); via != other.url {
		t.Errorf("via header = %q, want the forwarding replica %s", via, other.url)
	}

	// Release the worker; the same request must now succeed — proving the
	// 503 body was replayed, not cached in the fill-body slot.
	close(gate.release)
	wg.Wait()
	code, _ := getRaw(t, other.url+"/v1/metrics?"+qTest+"&diameter=1")
	if code != http.StatusOK {
		t.Fatalf("after release: HTTP %d, want 200 (503 must not be cached)", code)
	}
}

// TestClusterFillMarkerStopsForwarding checks the loop-prevention rule:
// a fill-marked request is never forwarded again — the owner serves it,
// and a non-owner without the artifact declines with 421 instead of
// building or proxying.
func TestClusterFillMarkerStopsForwarding(t *testing.T) {
	replicas := startTestCluster(t, 2, cluster.Config{HedgeDelay: -1}, nil)
	q := goldenQueries[0]
	key := goldenKey(t, q)
	var owner, other *clusterReplica
	for _, r := range replicas {
		if r.cl.Owns(key) {
			owner = r
		} else {
			other = r
		}
	}

	fillGet := func(base string) int {
		req, err := http.NewRequest(http.MethodGet, base+"/v1/build?"+q, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(cluster.FillHeader, "1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := fillGet(other.url); code != http.StatusMisdirectedRequest {
		t.Fatalf("fill against non-owner = HTTP %d, want 421", code)
	}
	if other.cb.count(key) != 0 {
		t.Fatal("non-owner built the artifact for a declined fill")
	}
	if code := fillGet(owner.url); code != http.StatusOK {
		t.Fatalf("fill against owner = HTTP %d, want 200", code)
	}
	if owner.cb.count(key) != 1 {
		t.Fatalf("owner build count = %d, want 1", owner.cb.count(key))
	}
}

// TestClusterEndpointSingleNode checks that /v1/cluster exists (and says
// so) without cluster mode, so probes can tell "single node" from "old
// binary".
func TestClusterEndpointSingleNode(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var cs ClusterResponse
	if resp := get(t, ts, "/v1/cluster", &cs); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/cluster: HTTP %d", resp.StatusCode)
	}
	if cs.Enabled {
		t.Fatal("single-node server reports cluster enabled")
	}
}
