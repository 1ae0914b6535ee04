// Command ipgbench is the repository benchmark: it boots a fresh ipgd,
// drives one workload at it closed loop over loopback, checks every
// response against an in-process oracle, and prints the end-to-end
// metrics (-trace 0) or the per-layer metrics (-trace 1) as one JSON
// object on the last line of standard output.
//
//	bash ipgbench/run.sh --workload simulate --seed 1 --seconds 30 --trace 0
//
// run.sh builds ipgd and this command from the checkout and passes -ipgd
// and -out.  BENCHMARK.json at the repository root documents the
// workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// children is how many ipgd processes a run boots, primes and measures
// in turn; setup_s and peak_rss_mb are their medians.  windowSlices is
// how many parts of each child's window the other end-to-end figures are
// medians over.
const (
	children     = 3
	windowSlices = 5
)

func main() {
	var (
		workload = flag.String("workload", "", "workload: warm|simulate|faulted|cold")
		seed     = flag.Int64("seed", 1, "seed the request universe and order are derived from")
		seconds  = flag.Int("seconds", 10, "length of the measured window")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics, adding the traced replay")
		ipgdBin  = flag.String("ipgd", "", "ipgd binary to benchmark")
		outDir   = flag.String("out", ".", "directory for the span file of a traced run")
	)
	flag.Parse()
	if flag.NArg() > 0 || *ipgdBin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: ipgbench -ipgd BIN -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-out DIR]")
		os.Exit(2)
	}
	// The client's own collector competes with the child for the same
	// CPUs; collecting less often keeps that interference small.
	debug.SetGCPercent(400)
	// An interrupt cancels the run, which still stops its child.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, *ipgdBin, *workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ipgbench: %v\n", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ipgbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(ctx context.Context, bin, workload string, seed int64, dur time.Duration, traced bool, outDir string) (*result, error) {
	plan, err := Generate(workload, seed)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	oracle, err := NewOracle(ctx, plan)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "ipgbench: %s seed %d: oracle for %d keys in %v\n", workload, seed, len(plan.Keys), time.Since(t0).Round(time.Millisecond))

	// Closed loop with min(nproc, 2) connections: client and child share
	// the machine, so more connections than CPUs would only queue, and
	// the cap keeps figures comparable between machines.
	conns := runtime.NumCPU()
	if conns > 2 {
		conns = 2
	}
	d := newLoader(plan, oracle, conns)
	// Each of the children is set up, measured for an equal share of the
	// window, and stopped, so no single process's luck sets a figure.
	var (
		setupSecs []float64
		windows   []*window
	)
	warm := dur / 20
	if warm > 500*time.Millisecond {
		warm = 500 * time.Millisecond
	}
	for i := 0; i < children; i++ {
		c, secs, err := d.setup(ctx, bin)
		if err != nil {
			return nil, err
		}
		w, err := d.measure(ctx, c, warm, dur/children)
		c.stop()
		if err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, secs)
		windows = append(windows, w)
	}
	lats := latencies(windows)
	fmt.Fprintf(os.Stderr, "ipgbench: %d requests (%d failed) over %v on %d children with %d connections; p50/p90/p99 %.3f/%.3f/%.3f ms over %d samples\n",
		len(lats), failures(windows), dur, children, conns,
		quantileMs(lats, 0.5), quantileMs(lats, 0.9), quantileMs(lats, 0.99), len(lats))

	res := &result{Attempted: d.attempted.Load(), Failed: d.failed.Load()}
	res.Correct = res.Failed == 0
	if !traced {
		res.Metrics = endToEnd(windows, setupSecs)
		return res, nil
	}
	tr, wall, err := Replay(ctx, plan, oracle, dur)
	if err != nil {
		return nil, err
	}
	spans := tr.Spans()
	spanFile := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	if err := WriteSpans(spanFile, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "ipgbench: traced replay: %d spans over %v, written to %s\n", len(spans), wall.Round(time.Millisecond), spanFile)
	if res.Metrics, err = perLayer(windows, Aggregate(spans), wall); err != nil {
		return nil, err
	}
	return res, nil
}

// endToEnd is the untraced run's report.  Throughput and latencies are
// medians over equal slices of every child's window, so a burst of
// machine noise moves one slice, not the result.
func endToEnd(ws []*window, setupSecs []float64) map[string]metric {
	var rps, p50, p90, rss []float64
	for _, w := range ws {
		for _, sl := range w.slices(windowSlices) {
			rps = append(rps, float64(sl.ok)/sl.dur.Seconds())
			p50 = append(p50, quantileMs(sl.lats, 0.5))
			p90 = append(p90, quantileMs(sl.lats, 0.9))
		}
		rss = append(rss, w.rssMB)
	}
	fmt.Fprintf(os.Stderr, "ipgbench: per-slice throughput %.0f, p50 %.3f, p90 %.3f; setups %.3f s; peak RSS %.1f MB\n", rps, p50, p90, setupSecs, rss)
	return map[string]metric{
		"setup_s":        {median(setupSecs), "s"},
		"throughput_rps": {median(rps), "1/s"},
		"latency_p50_ms": {median(p50), "ms"},
		"latency_p90_ms": {median(p90), "ms"},
		"peak_rss_mb":    {median(rss), "MB"},
	}
}

// perLayer is the traced run's report: the load generator's and the
// children's own counters over the measured windows, then the stages of
// the traced replay.
func perLayer(ws []*window, agg map[string]*StageStats, wall time.Duration) (map[string]metric, error) {
	lats := latencies(ws)
	var before, after []Prom
	for _, w := range ws {
		before = append(before, w.before)
		after = append(after, w.after)
	}
	deltas, err := promDeltas(sumProm(before), sumProm(after))
	if err != nil {
		return nil, err
	}
	out := map[string]metric{
		"error_rate":             {ratio(float64(failures(ws)), float64(len(lats))), "ratio"},
		"loadgen.latency_p99_ms": {quantileMs(lats, 0.99), "ms"},
		"loadgen.requests":       {float64(len(lats)), "count"},
	}
	for name, v := range deltas {
		out[name] = metric{v, promUnits[name]}
	}
	for name, v := range layerMetrics(agg, wall) {
		out[name] = v
	}
	return out, nil
}

// promUnits are the units of the ipgd.* metrics promDeltas returns.
var promUnits = map[string]string{
	"ipgd.cache_hit_ratio": "ratio",
	"ipgd.cache_evictions": "count",
	"ipgd.builds":          "count",
	"ipgd.build_ms_mean":   "ms",
	"ipgd.rejected_503":    "count",
	"ipgd.panics":          "count",
}

// layerMetrics turns the per-stage aggregates of a traced replay into the
// traced per-layer metrics.  Every stage is reported, with zeros where
// the workload never reached it.
func layerMetrics(agg map[string]*StageStats, wall time.Duration) map[string]metric {
	out := map[string]metric{}
	attributed := 0.0
	for _, name := range stageNames {
		st := agg[name]
		if st == nil {
			st = &StageStats{}
		}
		share := ratio(float64(st.SelfNs), float64(wall))
		attributed += share
		out[name+".calls"] = metric{float64(st.Calls), "count"}
		out[name+".us_per_call"] = metric{ratio(float64(st.SelfNs)/1e3, float64(st.Calls)), "us"}
		out[name+".share"] = metric{share, "ratio"}
	}
	rounds, encode := agg["netsim.sim_rounds"], agg["serve.encode"]
	if rounds == nil {
		rounds = &StageStats{}
	}
	if encode == nil {
		encode = &StageStats{}
	}
	out["netsim.sim_rounds.ns_per_node_round"] = metric{ratio(float64(rounds.SelfNs), float64(rounds.Work)), "ns"}
	out["serve.encode.bytes_per_call"] = metric{ratio(float64(encode.Work), float64(encode.Calls)), "B"}
	out["trace.unattributed_share"] = metric{1 - attributed, "ratio"}
	return out
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
