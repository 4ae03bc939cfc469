// Command urllangid-loadgen replays crawl-frontier-shaped traffic at a
// urllangid-serve instance and writes a JSON benchmark report — the
// committed BENCH_*.json trajectory files at the repo root come from
// this tool.
//
// The workload models the paper's motivating deployment (§1): a crawler
// classifying the URLs of its uncrawled frontier. Frontier traffic is
// not uniform — a few hosts dominate (zipfian host popularity) and the
// same link is rediscovered repeatedly (duplicates) — and both skews
// are what make the serving cache and in-batch dedup earn their keep,
// so the generator reproduces them: hosts are drawn from a Zipf
// distribution over -hosts domains, and each URL is, with probability
// -dup, an exact repeat of a recently generated one.
//
// With no -target, the tool self-hosts: it trains a calibrated NB/word
// fast tier and an NB/trigram slow tier (seeded, deterministic), composes
// them into a confidence cascade, stands up the same registry + handler
// stack urllangid-serve runs, and drives the cascade slot over loopback
// HTTP — one command, no fixtures, suitable for CI. Point -target at a
// running server to bench a real deployment instead (-model routes off
// its default slot).
//
// The report records client-side request latency percentiles (measured
// by the same log-linear histogram the server uses), overall URL
// throughput, the server's cache hit ratio and scoring latency over the
// run (scraped from /metrics and the model's stats endpoint before and
// after), the cascade's escalation rate and per-tier latency
// percentiles when the benched slot is a cascade, and — when
// self-hosting — heap allocations per URL across client and server.
//
// Example:
//
//	urllangid-loadgen -duration 10s -out BENCH_1.json
//	urllangid-loadgen -target http://localhost:8080 -concurrency 32 -dup 0.3
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"urllangid/internal/calib"
	"urllangid/internal/cascade"
	"urllangid/internal/compiled"
	"urllangid/internal/core"
	"urllangid/internal/datagen"
	"urllangid/internal/features"
	"urllangid/internal/modelfile"
	"urllangid/internal/obs"
	"urllangid/internal/registry"
	"urllangid/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "urllangid-loadgen:", err)
		os.Exit(1)
	}
}

// tlds gives generated hosts language-plausible endings so the traffic
// exercises real scoring paths, not one degenerate token mix.
var tlds = [...]string{"de", "fr", "es", "it", "com", "net", "co.uk", "nl"}

// pathWords pads URL paths with common crawl-path vocabulary.
var pathWords = [...]string{"artikel", "nachrichten", "article", "page", "noticias", "wetter", "sport", "index"}

// urlGen produces one worker's frontier slice: zipfian hosts, unique
// paths, and exact duplicates at the configured ratio drawn from a ring
// of recent URLs (a crawler re-discovers *recent* links, not ancient
// ones).
type urlGen struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	dup  float64
	ring []string
	pos  int
	n    int
}

func newURLGen(seed int64, hosts int, zipfS, dup float64) *urlGen {
	rng := rand.New(rand.NewSource(seed))
	return &urlGen{
		rng: rng,
		// s > 1 required by rand.NewZipf; v=1 starts the support at host 0.
		zipf: rand.NewZipf(rng, zipfS, 1, uint64(hosts-1)),
		dup:  dup,
		ring: make([]string, 0, 4096),
	}
}

func (g *urlGen) next() string {
	if len(g.ring) > 0 && g.rng.Float64() < g.dup {
		return g.ring[g.rng.Intn(len(g.ring))]
	}
	host := g.zipf.Uint64()
	g.n++
	u := fmt.Sprintf("http://www.seite-%d.%s/%s/%d.html",
		host, tlds[host%uint64(len(tlds))], pathWords[g.n%len(pathWords)], g.n)
	if len(g.ring) < cap(g.ring) {
		g.ring = append(g.ring, u)
	} else {
		g.ring[g.pos] = u
		g.pos = (g.pos + 1) % len(g.ring)
	}
	return u
}

func (g *urlGen) batch(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// serverView is the slice of /stats and /metrics the report keeps.
// The cascade fields are zero when the benched model is not a cascade
// slot; against a cascade they come from its /stats cascade block, so
// every BENCH_*.json from PR 10 on carries the escalation rate and
// per-tier latency next to the request-level percentiles.
type serverView struct {
	URLs           int64   `json:"urls"`
	CacheHits      int64   `json:"cache_hits"`
	CacheMisses    int64   `json:"cache_misses"`
	Deduped        int64   `json:"deduped"`
	CacheHitRatio  float64 `json:"cache_hit_ratio"`
	LatencyP50Us   float64 `json:"latency_p50_us"`
	LatencyP99Us   float64 `json:"latency_p99_us"`
	EscalationRate float64 `json:"escalation_rate"`
	FastP50Us      float64 `json:"fast_p50_us"`
	FastP99Us      float64 `json:"fast_p99_us"`
	SlowP50Us      float64 `json:"slow_p50_us"`
	SlowP99Us      float64 `json:"slow_p99_us"`
}

type report struct {
	Bench       string `json:"bench"`
	GeneratedAt string `json:"generated_at"`
	Config      struct {
		Target      string  `json:"target"`
		Model       string  `json:"model,omitempty"`
		DurationSec float64 `json:"duration_seconds"`
		Concurrency int     `json:"concurrency"`
		Batch       int     `json:"batch"`
		Hosts       int     `json:"hosts"`
		ZipfS       float64 `json:"zipf_s"`
		DupRatio    float64 `json:"dup_ratio"`
		Seed        int64   `json:"seed"`
	} `json:"config"`
	ElapsedSeconds       float64 `json:"elapsed_seconds"`
	Requests             int64   `json:"requests"`
	Errors               int64   `json:"errors"`
	URLs                 int64   `json:"urls"`
	ThroughputURLsPerSec float64 `json:"throughput_urls_per_sec"`
	RequestLatencyMs     struct {
		P50 float64 `json:"p50"`
		P90 float64 `json:"p90"`
		P99 float64 `json:"p99"`
	} `json:"request_latency_ms"`
	Server       serverView `json:"server"`
	AllocsPerURL float64    `json:"allocs_per_url,omitempty"`
	// ModelLoadUs is the self-hosted model's open-to-ready time in
	// microseconds: saving the compiled snapshot as a flat v3 file and
	// timing registry.LoadFile — mmap, directory and payload digest
	// checks, structural validation, engine construction — until the
	// slot serves. Absent in -target mode.
	ModelLoadUs float64 `json:"model_load_us,omitempty"`
}

func run(args []string, out io.Writer) error {
	cfg, outPath, inProcess, err := parseFlags(args)
	if err != nil {
		return err
	}

	target := cfg.Config.Target
	var cleanup func()
	if inProcess {
		srv, loadUs, stop, err := startInProcess(cfg.Config.Seed)
		if err != nil {
			return err
		}
		cleanup = stop
		target = srv.URL
		cfg.ModelLoadUs = loadUs
		// The self-hosted bench drives the cascade slot: the interesting
		// serving shape from PR 10 on is calibrated-fast-tier p50 with
		// slow-tier escalations, not a single model.
		cfg.Config.Model = "cascade"
		fmt.Fprintf(out, "self-hosting calibrated NB/word → NB/trigram cascade on %s (fast tier load %.1fµs)\n", target, loadUs)
	}
	if cleanup != nil {
		defer cleanup()
	}

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        cfg.Config.Concurrency * 2,
		MaxIdleConnsPerHost: cfg.Config.Concurrency * 2,
	}}

	before, err := scrape(client, target, cfg.Config.Model)
	if err != nil {
		return fmt.Errorf("pre-run scrape of %s: %w", target, err)
	}
	classifyURL := target + "/v1/classify"
	if cfg.Config.Model != "" {
		classifyURL += "?model=" + cfg.Config.Model
	}

	// Client-side latency goes through the same histogram type the
	// server uses, so both ends of the report share error bounds.
	lat := obs.NewHistogram(1e-9)
	var requests, failures, urls atomic.Int64
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)

	start := time.Now()
	deadline := start.Add(time.Duration(cfg.Config.DurationSec * float64(time.Second)))
	var wg sync.WaitGroup
	for w := 0; w < cfg.Config.Concurrency; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			gen := newURLGen(cfg.Config.Seed+int64(id)*7919, cfg.Config.Hosts, cfg.Config.ZipfS, cfg.Config.DupRatio)
			for time.Now().Before(deadline) {
				batch := gen.batch(cfg.Config.Batch)
				body, _ := json.Marshal(map[string][]string{"urls": batch})
				t0 := time.Now()
				resp, err := client.Post(classifyURL, "application/json", bytes.NewReader(body))
				lat.Observe(int64(time.Since(t0)))
				requests.Add(1)
				if err != nil {
					failures.Add(1)
					continue
				}
				_, drainErr := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if drainErr != nil || resp.StatusCode != http.StatusOK {
					failures.Add(1)
					continue
				}
				urls.Add(int64(len(batch)))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	after, err := scrape(client, target, cfg.Config.Model)
	if err != nil {
		return fmt.Errorf("post-run scrape of %s: %w", target, err)
	}

	rep := cfg
	rep.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	rep.Config.Target = target
	rep.ElapsedSeconds = elapsed.Seconds()
	rep.Requests = requests.Load()
	rep.Errors = failures.Load()
	rep.URLs = urls.Load()
	if elapsed > 0 {
		rep.ThroughputURLsPerSec = float64(rep.URLs) / elapsed.Seconds()
	}
	rep.RequestLatencyMs.P50 = lat.Quantile(0.50) / 1e6
	rep.RequestLatencyMs.P90 = lat.Quantile(0.90) / 1e6
	rep.RequestLatencyMs.P99 = lat.Quantile(0.99) / 1e6
	rep.Server = delta(before, after)
	if inProcess && rep.URLs > 0 {
		rep.AllocsPerURL = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(rep.URLs)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outPath != "" {
		if err := os.WriteFile(outPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s: %d URLs in %.1fs (%.0f urls/s, p50 %.2fms, p99 %.2fms, hit ratio %.2f)\n",
			outPath, rep.URLs, rep.ElapsedSeconds, rep.ThroughputURLsPerSec,
			rep.RequestLatencyMs.P50, rep.RequestLatencyMs.P99, rep.Server.CacheHitRatio)
		return nil
	}
	_, err = out.Write(data)
	return err
}

func parseFlags(args []string) (report, string, bool, error) {
	var rep report
	fs := flag.NewFlagSet("urllangid-loadgen", flag.ContinueOnError)
	target := fs.String("target", "", "base URL of a running urllangid-serve (empty: self-host an in-process server)")
	model := fs.String("model", "", "model name to route requests at (-target mode; empty uses the server default)")
	duration := fs.Duration("duration", 10*time.Second, "how long to generate load")
	concurrency := fs.Int("concurrency", 8, "concurrent client workers")
	batch := fs.Int("batch", 64, "URLs per /v1/classify request")
	hosts := fs.Int("hosts", 1000, "distinct hosts in the synthetic frontier")
	zipfS := fs.Float64("zipf", 1.3, "zipf skew of host popularity (must be > 1)")
	dup := fs.Float64("dup", 0.2, "probability a URL exactly repeats a recent one")
	seed := fs.Int64("seed", 41, "workload RNG seed")
	outPath := fs.String("out", "", "write the JSON report here (empty: stdout)")
	if err := fs.Parse(args); err != nil {
		return rep, "", false, err
	}
	if *zipfS <= 1 {
		return rep, "", false, errors.New("-zipf must be > 1")
	}
	if *dup < 0 || *dup > 1 {
		return rep, "", false, errors.New("-dup must be in [0, 1]")
	}
	if *concurrency < 1 || *batch < 1 || *hosts < 2 {
		return rep, "", false, errors.New("-concurrency and -batch must be >= 1, -hosts >= 2")
	}
	rep.Bench = "urllangid-loadgen"
	rep.Config.Target = strings.TrimSuffix(*target, "/")
	rep.Config.Model = *model
	rep.Config.DurationSec = duration.Seconds()
	rep.Config.Concurrency = *concurrency
	rep.Config.Batch = *batch
	rep.Config.Hosts = *hosts
	rep.Config.ZipfS = *zipfS
	rep.Config.DupRatio = *dup
	rep.Config.Seed = *seed
	return rep, *outPath, *target == "", nil
}

// startInProcess trains the two-tier serving stack the report benches
// from PR 10 on: a fast NB/word model calibrated on a held-out split
// and a slow NB/trigram model (the most accurate single configuration
// on this corpus), each saved as a flat v3 snapshot file and
// loaded into the registry + handler stack urllangid-serve runs, with
// a "cascade" slot composed over them at the default threshold.
// Loading the fast tier's file is timed — open-to-ready, reported in
// microseconds — so every benchmark artifact carries the deployment
// cold-start cost next to the steady-state throughput numbers.
func startInProcess(seed int64) (srv *httptest.Server, loadUs float64, cleanup func(), err error) {
	ds := datagen.Generate(datagen.Config{
		Kind: datagen.ODP, Seed: uint64(seed), TrainPerLang: 800, TestPerLang: 200,
	})
	fastSys, err := core.Train(core.Config{Algo: core.NaiveBayes, Features: features.Words, Seed: uint64(seed)}, ds.Train)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("training fast tier: %w", err)
	}
	fastSnap := compiled.FromSystem(fastSys)
	// ds.Test never fed training, so it is the held-out split the
	// calibration contract wants (see Snapshot.Calibrate).
	cal, _, err := calib.FitEval(fastSnap.Scores, ds.Test, 0)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("calibrating fast tier: %w", err)
	}
	fastSnap.SetCalibration(cal)
	slowSys, err := core.Train(core.Config{Algo: core.NaiveBayes, Features: features.Trigrams, Seed: uint64(seed)}, ds.Train)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("training slow tier: %w", err)
	}
	slowSnap := compiled.FromSystem(slowSys)

	dir, err := os.MkdirTemp("", "urllangid-loadgen-")
	if err != nil {
		return nil, 0, nil, err
	}
	rmDir := func() { os.RemoveAll(dir) }
	writeSnap := func(name string, snap *compiled.Snapshot) (string, error) {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return "", err
		}
		if err := modelfile.WriteSnapshot(f, snap); err != nil {
			f.Close()
			return "", fmt.Errorf("writing %s: %w", name, err)
		}
		return path, f.Close()
	}
	fastPath, err := writeSnap("fast.snapshot", fastSnap)
	if err != nil {
		rmDir()
		return nil, 0, nil, err
	}
	slowPath, err := writeSnap("slow.snapshot", slowSnap)
	if err != nil {
		rmDir()
		return nil, 0, nil, err
	}

	reg := registry.New(registry.Options{Engine: serve.Options{CacheCapacity: 1 << 20}})
	fail := func(err error) (*httptest.Server, float64, func(), error) {
		reg.Close()
		rmDir()
		return nil, 0, nil, err
	}
	t0 := time.Now()
	if _, err := reg.LoadFile("fast", fastPath); err != nil {
		return fail(fmt.Errorf("loading fast snapshot: %w", err))
	}
	loadUs = float64(time.Since(t0)) / float64(time.Microsecond)
	if _, err := reg.LoadFile("slow", slowPath); err != nil {
		return fail(fmt.Errorf("loading slow snapshot: %w", err))
	}
	if _, err := reg.InstallCascade("cascade", "fast", "slow", cascade.Config{}); err != nil {
		return fail(fmt.Errorf("installing cascade: %w", err))
	}

	srv = httptest.NewServer(serve.NewHandler(reg, serve.HandlerOptions{}))
	return srv, loadUs, func() { srv.Close(); reg.Close(); rmDir() }, nil
}

// scrape reads the server's per-model counters from /metrics (proving
// the exposition is machine-consumable end to end) and the latency
// percentiles from the benched model's stats endpoint. When the model
// is a cascade slot its stats carry a cascade block, and the per-tier
// view lands in the report alongside the request-level percentiles.
func scrape(client *http.Client, base, model string) (serverView, error) {
	var v serverView
	families, err := fetchMetrics(client, base+"/metrics")
	if err != nil {
		return v, err
	}
	v.URLs = int64(sumFamily(families, "urllangid_model_urls_total"))
	v.CacheHits = int64(sumFamily(families, "urllangid_model_cache_hits_total"))
	v.CacheMisses = int64(sumFamily(families, "urllangid_model_cache_misses_total"))
	v.Deduped = int64(sumFamily(families, "urllangid_model_deduped_total"))

	statsURL := base + "/stats"
	if model != "" {
		statsURL = base + "/v1/models/" + model + "/stats"
	}
	resp, err := client.Get(statsURL)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	var stats struct {
		LatencyP50Us float64 `json:"latency_p50_us"`
		LatencyP99Us float64 `json:"latency_p99_us"`
		Cascade      *struct {
			EscalationRate float64 `json:"escalation_rate"`
			FastP50Us      float64 `json:"fast_p50_us"`
			FastP99Us      float64 `json:"fast_p99_us"`
			SlowP50Us      float64 `json:"slow_p50_us"`
			SlowP99Us      float64 `json:"slow_p99_us"`
		} `json:"cascade"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return v, fmt.Errorf("decoding %s: %w", statsURL, err)
	}
	v.LatencyP50Us = stats.LatencyP50Us
	v.LatencyP99Us = stats.LatencyP99Us
	if c := stats.Cascade; c != nil {
		v.EscalationRate = c.EscalationRate
		v.FastP50Us = c.FastP50Us
		v.FastP99Us = c.FastP99Us
		v.SlowP50Us = c.SlowP50Us
		v.SlowP99Us = c.SlowP99Us
	}
	return v, nil
}

// fetchMetrics parses Prometheus text exposition into sample name (with
// labels) → value.
func fetchMetrics(client *http.Client, url string) (map[string]float64, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseMetricsText(string(body)), nil
}

// parseMetricsText turns exposition text into sample name (with
// labels) → value, skipping comments and anything unparsable.
func parseMetricsText(body string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		val, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = val
	}
	return out
}

// sumFamily totals a family's samples across its label sets (one per
// model).
func sumFamily(samples map[string]float64, name string) float64 {
	var total float64
	for k, v := range samples {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// delta reports the run's own server-side work: counter differences
// plus the post-run latency view (the percentiles are lifetime, which
// against a fresh or dedicated server is the run itself).
func delta(before, after serverView) serverView {
	d := serverView{
		URLs:           after.URLs - before.URLs,
		CacheHits:      after.CacheHits - before.CacheHits,
		CacheMisses:    after.CacheMisses - before.CacheMisses,
		Deduped:        after.Deduped - before.Deduped,
		LatencyP50Us:   after.LatencyP50Us,
		LatencyP99Us:   after.LatencyP99Us,
		EscalationRate: after.EscalationRate,
		FastP50Us:      after.FastP50Us,
		FastP99Us:      after.FastP99Us,
		SlowP50Us:      after.SlowP50Us,
		SlowP99Us:      after.SlowP99Us,
	}
	if d.URLs > 0 {
		d.CacheHitRatio = float64(d.CacheHits) / float64(d.URLs)
	}
	return d
}
