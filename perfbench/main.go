// Command perfbench is the repository's benchmark. It builds a corpus
// and two model tiers with the program's own training code, then
// measures one workload from outside the program:
//
//	classify_open  urllangid-serve cascade, POST /v1/classify, 64 URLs
//	               per request: closed loop, then open loop at two rates
//	stream_reload  urllangid-serve NB/word slot with its cache, NDJSON
//	               segments while the model file is swapped and reloaded
//	library_batch  the public Registry API in a child process,
//	               ClassifyBatch on the cascade
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it also
// replays the workload's requests in-process through the HTTP handler
// and prints per-layer metrics from timing wrappers around each layer.
// The last line of standard output is the result object; the line
// before it records the environment and per-phase sample counts.
//
// Run it through run.sh, which builds the server and this program from
// the checkout first:
//
//	bash perfbench/run.sh --workload classify_open --seed 1 --seconds 24 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// confirmSeed is reserved for confirming a claimed gain: tune and
// explore on other seeds, then re-measure on this one.
const confirmSeed = 20080824

var workloads = map[string]func(*config, *corpus) (*e2e, error){
	"classify_open": runOpen,
	"stream_reload": runStream,
	"library_batch": runLibrary,
}

type config struct {
	workload  string
	seed      uint64
	seconds   int
	trace     bool
	serverBin string
	work      string // this run's scratch directory
}

func (c *config) path(name string) string { return filepath.Join(c.work, name) }

// metric is one reported value with its unit.
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

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "classify_open, stream_reload or library_batch")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: orders and mixes the requests")
	flag.IntVar(&cfg.seconds, "seconds", 30, "measured seconds, split over rounds of the three load points")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced in-process replay instead of end-to-end metrics")
	flag.StringVar(&cfg.serverBin, "server", "", "urllangid-serve binary built from the checkout under test")
	flag.StringVar(&cfg.work, "work", "", "directory for generated models and files")
	child := flag.Bool("lib-child", false, "internal: run as the library workload's child process in -work")
	flag.Parse()
	cfg.trace = trace == 1
	if *child {
		return libChild(&cfg)
	}
	runWorkload, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 3 {
		return fmt.Errorf("-seconds %d: need at least 3 (one per load point)", cfg.seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	if cfg.serverBin == "" || cfg.work == "" {
		return fmt.Errorf("-server and -work are required; run perfbench/run.sh")
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	var err error
	if cfg.work, err = os.MkdirTemp(cfg.work, "run-"); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.work)

	c, err := buildCorpus(cfg.work)
	if err != nil {
		return err
	}
	res, err := runWorkload(&cfg, c)
	if err != nil {
		return err
	}
	out, details := endToEnd(cfg.workload, res)
	for _, e := range res.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", e)
	}
	if cfg.trace {
		layers, err := traceWorkload(&cfg, c, res)
		if err != nil {
			return err
		}
		out.Metrics = layers.metrics
		out.Attempted += layers.attempted
		out.Failed += layers.failed
		out.Correct = out.Correct && layers.correct
		details["trace"] = layers.details
	}
	// A metric that could not be measured is reported as 0 and fails
	// the run.
	for name, m := range out.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s could not be measured\n", name)
			out.Metrics[name] = metric{Value: 0, Unit: m.Unit}
			out.Correct = false
		}
	}
	line, err := json.Marshal(map[string]any{"env": environment(&cfg), "details": finite(details)})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	line, err = json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEnd turns a run's measurements into the end-to-end metrics.
// Timings, throughput and CPU are medians over rounds of each round's
// figure, so a noisy round on a shared host does not move them; counts
// and shares pool all rounds. p99 latencies and reload times go to the
// details only: on a small shared VM their run-to-run spread is wider
// than any bound a gate could use.
func endToEnd(workload string, r *e2e) (result, map[string]any) {
	out := result{Metrics: make(map[string]metric)}
	put := func(name, unit string, v float64) { out.Metrics[name] = metric{Value: v, Unit: unit} }
	details := map[string]any{}
	var urls, correct, sampled int64
	cpuPerKURL := make([]float64, rounds)
	roundURLs := make([]int64, rounds)
	ok := true
	for _, name := range []string{"main", "lo", "hi"} {
		ps := r.phases[name]
		if len(ps) != rounds {
			ok = false
			continue
		}
		var p50s, p90s, p99s, rates, all, lags []float64
		var reqs, failed, within int64
		for i, p := range ps {
			reqs += p.reqs
			failed += p.failed
			urls += p.tally.urls
			correct += p.tally.correct
			sampled += p.tally.sampled
			cpuPerKURL[i] += ms(p.cpu)
			roundURLs[i] += p.tally.urls
			if p.err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s phase: %v\n", name, p.err)
			}
			for _, l := range p.lat {
				if l <= sloLimitMs[workload] {
					within++
				}
			}
			all = append(all, p.lat...)
			lags = append(lags, p.lag...)
			p50, _ := percentile(p.lat, 0.50)
			p90, _ := percentile(p.lat, 0.90)
			p99, _ := percentile(p.lat, 0.99)
			p50s, p90s, p99s = append(p50s, p50), append(p90s, p90), append(p99s, p99)
			rates = append(rates, float64(p.tally.urls)/p.elapsed.Seconds())
		}
		out.Attempted += reqs
		out.Failed += failed
		pooled99, beyond := percentile(all, 0.99)
		d := map[string]any{"requests": reqs, "failed": failed, "round_p50_ms": p50s, "round_p90_ms": p90s, "round_p99_ms": p99s,
			"round_urls_per_s": rates, "pooled_p99_ms": pooled99, "pooled_samples_beyond_p99": beyond}
		if len(lags) > 0 {
			lagP99, _ := percentile(lags, 0.99)
			d["lag_p50_ms"], d["lag_p99_ms"] = median(lags), lagP99
		}
		details[name] = d
		suffix := "." + name
		if name == "main" {
			suffix = ""
			put("urls_per_s", "1/s", median(rates))
		}
		put("p50_ms"+suffix, "ms", median(p50s))
		put("p90_ms"+suffix, "ms", median(p90s))
		if name == "hi" {
			put("slo_share.hi", "share", float64(within)/math.Max(1, float64(reqs)))
		}
	}
	for i := range cpuPerKURL {
		cpuPerKURL[i] /= math.Max(1, float64(roundURLs[i])/1000)
	}
	put("setup_s", "s", median(r.setup))
	put("cpu_ms_per_kurl", "ms", median(cpuPerKURL))
	put("rss_mb", "MB", r.rssMB)
	put("accuracy", "share", float64(correct)/math.Max(1, float64(urls)))
	out.Attempted += int64(len(r.reloads)+len(r.busyReloads)) + r.failed
	out.Failed += r.failed
	details["setup_s"] = r.setup
	details["reloads_ms"] = r.reloads
	details["reload_median_ms"] = median(r.reloads)
	if len(r.busyReloads) > 0 {
		details["reloads_under_load_ms"] = r.busyReloads
	}
	details["round_cpu_ms_per_kurl"] = cpuPerKURL
	details["client_cpu_ms_per_kurl"] = ms(r.clientCPU) / math.Max(1, float64(urls)/1000)
	details["urls"], details["sampled"] = urls, sampled
	// A run is correct when nothing failed and both the sampled
	// comparison and the reload probes actually ran.
	out.Correct = ok && out.Failed == 0 && sampled > 0 && len(r.reloads) > 0
	return out, details
}

// finite replaces the NaN a figure without samples reads as (a phase
// whose requests all failed, say) with null, which JSON can carry.
func finite(v any) any {
	switch x := v.(type) {
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil
		}
	case []float64:
		out := make([]any, len(x))
		for i, f := range x {
			out[i] = finite(f)
		}
		return out
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, e := range x {
			out[k] = finite(e)
		}
		return out
	}
	return v
}
