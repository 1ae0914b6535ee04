package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Prom is one scrape of a Prometheus text exposition: sample value by
// series, the series written as in the page ("name" or
// `name{label="v",...}`).
type Prom map[string]float64

// ParseProm parses the text exposition format ipgd's /metrics serves.
// Comments and blank lines are skipped; any other line that is not
// "<series> <value>" is an error, never a silent zero.
func ParseProm(body []byte) (Prom, error) {
	out := Prom{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// Label values never contain spaces in ipgd's output, so the
		// value is the last space-separated field.
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("prometheus line %d: no value: %q", ln, line)
		}
		series, val := strings.TrimSpace(line[:i]), line[i+1:]
		if open := strings.IndexByte(series, '{'); open == 0 || (open > 0) != strings.HasSuffix(series, "}") {
			return nil, fmt.Errorf("prometheus line %d: malformed series %q", ln, series)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("prometheus line %d: %w", ln, err)
		}
		if _, dup := out[series]; dup {
			return nil, fmt.Errorf("prometheus line %d: duplicate series %q", ln, series)
		}
		out[series] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("prometheus page has no samples")
	}
	return out, nil
}

// Sum adds the samples of every series of metric name whose labels
// contain each of the given `label="value"` matchers.  A metric with no
// series at all is an error: ipgd always exports the ones read here.
func (p Prom) Sum(name string, matchers ...string) (float64, error) {
	total, found := 0.0, false
	for series, v := range p {
		base, labels, _ := strings.Cut(series, "{")
		if base != name {
			continue
		}
		found = true
		ok := true
		for _, m := range matchers {
			if !strings.Contains(labels, m) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	if !found {
		return 0, fmt.Errorf("prometheus page has no %s series", name)
	}
	return total, nil
}

// sumProm adds scrapes of several children series by series.
func sumProm(pages []Prom) Prom {
	out := Prom{}
	for _, p := range pages {
		for series, v := range p {
			out[series] += v
		}
	}
	return out
}

// promDeltas turns two scrapes around the measured window into the
// ipgd.* per-layer metrics.
func promDeltas(before, after Prom) (map[string]float64, error) {
	var err error
	delta := func(name string, matchers ...string) float64 {
		if err != nil {
			return 0
		}
		var a, b float64
		if b, err = before.Sum(name, matchers...); err != nil {
			return 0
		}
		if a, err = after.Sum(name, matchers...); err != nil {
			return 0
		}
		return a - b
	}
	hits := delta("ipgd_cache_hits_total")
	misses := delta("ipgd_cache_misses_total")
	buildSecs := delta("ipgd_build_duration_seconds_sum")
	buildCount := delta("ipgd_build_duration_seconds_count")
	out := map[string]float64{
		"ipgd.cache_evictions": delta("ipgd_cache_evictions_total"),
		"ipgd.builds":          delta("ipgd_artifact_builds_total"),
		"ipgd.rejected_503":    delta("ipgd_requests_total", `code="503"`),
		"ipgd.panics":          delta("ipgd_panics_total"),
	}
	if err != nil {
		return nil, err
	}
	out["ipgd.cache_hit_ratio"] = ratio(hits, hits+misses)
	out["ipgd.build_ms_mean"] = 1000 * ratio(buildSecs, buildCount)
	for name, v := range out {
		if v < 0 || math.IsNaN(v) {
			return nil, fmt.Errorf("%s went backwards over the window (%v): the child restarted?", name, v)
		}
	}
	return out, nil
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
