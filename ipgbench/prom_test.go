package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

// testdata/metrics.txt is a /metrics page captured from ipgd after four
// cold metrics requests against a 1 MiB cache, one route and one 400.
func TestParsePromCapturedPage(t *testing.T) {
	body, err := os.ReadFile("testdata/metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	p, err := ParseProm(body)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		matchers []string
		want     float64
	}{
		{"ipgd_cache_hits_total", nil, 1},
		{"ipgd_cache_misses_total", nil, 4},
		{"ipgd_cache_evictions_total", nil, 1},
		{"ipgd_artifact_builds_total", nil, 4},
		{"ipgd_artifact_builds_total", []string{`representation="csr"`}, 4},
		{"ipgd_requests_total", nil, 6},
		{"ipgd_requests_total", []string{`code="200"`}, 5},
		{"ipgd_requests_total", []string{`endpoint="/v1/metrics"`, `code="400"`}, 1},
		{"ipgd_requests_total", []string{`code="503"`}, 0},
		{"ipgd_build_duration_seconds_sum", nil, 0.068014159},
		{"ipgd_build_duration_seconds_bucket", []string{`le="+Inf"`}, 4},
	} {
		got, err := p.Sum(c.name, c.matchers...)
		if err != nil {
			t.Fatalf("Sum(%s, %v): %v", c.name, c.matchers, err)
		}
		if got != c.want {
			t.Errorf("Sum(%s, %v) = %v, want %v", c.name, c.matchers, got, c.want)
		}
	}
	if _, err := p.Sum("ipgd_no_such_total"); err == nil {
		t.Error("Sum of an absent metric succeeded; it must fail instead of reading zero")
	}
}

func TestParsePromRejectsMalformedPages(t *testing.T) {
	for _, body := range []string{
		"",
		"# HELP only comments\n",
		"ipgd_cache_hits_total\n",
		"ipgd_cache_hits_total one\n",
		"ipgd_requests_total{code=\"200\" 3\n",
		"{code=\"200\"} 3\n",
		"ipgd_cache_hits_total 1\nipgd_cache_hits_total 2\n",
	} {
		if p, err := ParseProm([]byte(body)); err == nil {
			t.Errorf("ParseProm(%q) = %v, want an error", body, p)
		}
	}
}

func TestPromDeltas(t *testing.T) {
	before, err := ParseProm(mustRead(t, "testdata/metrics.txt"))
	if err != nil {
		t.Fatal(err)
	}
	page := string(mustRead(t, "testdata/metrics.txt"))
	for old, new := range map[string]string{
		"ipgd_cache_hits_total 1":                                "ipgd_cache_hits_total 31",
		"ipgd_cache_misses_total 4":                              "ipgd_cache_misses_total 14",
		"ipgd_cache_evictions_total 1":                           "ipgd_cache_evictions_total 9",
		`ipgd_artifact_builds_total{representation="csr"} 4`:     `ipgd_artifact_builds_total{representation="csr"} 14`,
		"ipgd_build_duration_seconds_sum 0.068014159":            "ipgd_build_duration_seconds_sum 0.118014159",
		"ipgd_build_duration_seconds_count 4":                    "ipgd_build_duration_seconds_count 14",
		`ipgd_requests_total{endpoint="/v1/route",code="200"} 1`: "ipgd_requests_total{endpoint=\"/v1/route\",code=\"200\"} 1\nipgd_requests_total{endpoint=\"/v1/route\",code=\"503\"} 2",
		"ipgd_panics_total 0":                                    "ipgd_panics_total 1",
	} {
		if !strings.Contains(page, old) {
			t.Fatalf("captured page lacks %q", old)
		}
		page = strings.Replace(page, old, new, 1)
	}
	after, err := ParseProm([]byte(page))
	if err != nil {
		t.Fatal(err)
	}
	got, err := promDeltas(before, after)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"ipgd.cache_hit_ratio": 0.75,
		"ipgd.cache_evictions": 8,
		"ipgd.builds":          10,
		"ipgd.build_ms_mean":   5,
		"ipgd.rejected_503":    2,
		"ipgd.panics":          1,
	}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("promDeltas returned %d metrics, want %d", len(got), len(want))
	}
	if _, err := promDeltas(after, before); err == nil {
		t.Error("counters going backwards were not reported")
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
