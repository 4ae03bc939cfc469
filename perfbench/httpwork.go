package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"urllangid"
	"urllangid/internal/langid"
)

// Open-loop arrival rates of classify_open, in URLs per second: about
// a tenth and a third of the closed-loop capacity at two connections on
// a 2-vCPU x86-64 VM.
const (
	openLoRate = 15000
	openHiRate = 50000
)

// Latency limits behind slo_share.hi, per request (classify, library
// call) or per stream segment.
var sloLimitMs = map[string]float64{
	"classify_open": 5,
	"stream_reload": 100,
	"library_batch": 5,
}

// Set-up and reload probes per run; their medians are reported.
const (
	setupRuns    = 9
	reloadProbes = 25
	// rounds interleaves the three load points: each runs rounds times
	// for seconds/(3·rounds), so drift in the host's speed during a run
	// reaches all three alike, and its figures are medians over rounds.
	rounds = 10
	// streamReloadEvery spaces the stream workload's model swaps under
	// load.
	streamReloadEvery = 2 * time.Second
	warmUp            = 500 * time.Millisecond
)

// e2e is everything one end-to-end run measured.
type e2e struct {
	setup       []float64                // seconds, one per cold start
	phases      map[string][]phaseResult // per load point, one per round
	clientCPU   time.Duration            // this process's CPU over the measured phases
	rssMB       float64
	reloads     []float64 // ms per reload probe on the idle target
	busyReloads []float64 // ms per stream_reload swap under load
	failed      int64     // reloads or probes that failed
	errs        []error
}

func (r *e2e) fail(err error) {
	r.failed++
	r.errs = append(r.errs, err)
}

// loadPoints lists the workload's three load points: its closed loop at
// two callers, then its light (lo) and heavy (hi) point, each lasting
// one round's share of seconds.
func loadPoints(workload string, seconds float64) []phase {
	d := time.Duration(seconds / float64(3*rounds) * float64(time.Second))
	main := phase{name: "main", callers: 2, dur: d}
	if workload == "classify_open" {
		return []phase{main,
			{name: "lo", callers: 2, rate: openLoRate / batchURLs, dur: d},
			{name: "hi", callers: 2, rate: openHiRate / batchURLs, dur: d}}
	}
	return []phase{main, {name: "lo", callers: 1, dur: d}, {name: "hi", callers: 4, dur: d}}
}

func phaseStream(name string) uint64 {
	switch name {
	case "lo":
		return streamLo
	case "hi":
		return streamHi
	case "warm":
		return streamWarm
	}
	return streamMain
}

// startTarget cold-starts the server setupRuns times, stops all but the
// last, and returns it with every start-up time.
func startTarget(cfg *config, args []string, probePath string, res *e2e) (*server, error) {
	var srv *server
	for i := 0; i < setupRuns; i++ {
		if srv != nil {
			srv.stop()
		}
		s, d, err := startServer(cfg.serverBin, args, probePath)
		if err != nil {
			return nil, err
		}
		srv = s
		res.setup = append(res.setup, d.Seconds())
	}
	return srv, nil
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true}}
}

// measure runs the warm-up and then rounds of the load points, sampling
// the target's CPU (cpuOf) around each phase and this process's around
// all of them. newCaller is called once per load point; its callers keep
// drawing from one request sequence across rounds.
func measure(cfg *config, res *e2e, cpuOf func() (time.Duration, error), newCaller func(p phase) func(w int) caller) error {
	runPhase(phase{name: "warm", callers: 2, dur: warmUp}, newCaller(phase{name: "warm"}))
	points := loadPoints(cfg.workload, float64(cfg.seconds))
	callers := make([]func(w int) caller, len(points))
	for i, p := range points {
		callers[i] = newCaller(p)
	}
	res.phases = make(map[string][]phaseResult)
	cl0 := selfCPU()
	for r := 0; r < rounds; r++ {
		for i, p := range points {
			c0, err := cpuOf()
			if err != nil {
				return err
			}
			pr := runPhase(p, callers[i])
			c1, err := cpuOf()
			if err != nil {
				return err
			}
			pr.cpu = c1 - c0
			res.phases[p.name] = append(res.phases[p.name], pr)
		}
	}
	res.clientCPU = selfCPU() - cl0
	return nil
}

// reloader deploys the fast tier's two encodings over its slot file in
// turn and reloads the slot after each deploy. A reload must really
// swap: report a change and exactly the next version.
type reloader struct {
	slot    string
	files   [2]string // deployed in turn: files[version%2] follows version
	version int64     // the slot's current version
	reload  func() (version int64, changed bool, err error)
}

// swap deploys the next file and reloads; it returns the reload's time
// in ms, or an error when the reload failed or did not swap.
func (r *reloader) swap() (float64, error) {
	if err := copyFile(r.slot, r.files[r.version%2]); err != nil {
		return 0, err
	}
	t0 := time.Now()
	v, changed, err := r.reload()
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	want := r.version + 1
	r.version = v
	if !changed || v != want {
		return 0, fmt.Errorf("reload reported changed=%v version %d, want a swap to version %d", changed, v, want)
	}
	return ms(d), nil
}

// probe runs reloadProbes swaps on the idle target.
func (r *reloader) probe(res *e2e) {
	for i := 0; i < reloadProbes; i++ {
		d, err := r.swap()
		if err != nil {
			res.fail(err)
			continue
		}
		res.reloads = append(res.reloads, d)
	}
}

func httpReloader(client *http.Client, base, slot string, c *corpus) *reloader {
	return &reloader{slot: slot, files: [2]string{c.fastPath, c.fastUncalPath}, version: 1,
		reload: func() (int64, bool, error) { return reload(client, base, "fast") }}
}

// batchSource hands out one phase's classify batches to its callers in
// sequence order.
type batchSource struct {
	mu  sync.Mutex
	seq *batchSeq
	n   int // URLs handed out so far, for sample positions
}

func (s *batchSource) next() (idx []int, pos int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx, pos = s.seq.next(), s.n
	s.n += len(idx)
	return idx, pos
}

// batchCheck turns a batch of pool indices into the URLs, labels and
// sample marks verify wants.
func batchCheck(pool []entry, idx []int, pos int) (urls []string, labels []langid.Language, sampled []bool) {
	urls = make([]string, len(idx))
	labels = make([]langid.Language, len(idx))
	sampled = make([]bool, len(idx))
	for j, k := range idx {
		urls[j], labels[j] = pool[k].url, pool[k].lang
		sampled[j] = (pos+j)%sampleEvery == 0
	}
	return urls, labels, sampled
}

// classifyBody renders a batch as a /v1/classify request body.
func classifyBody(b *bytes.Buffer, pool []entry, idx []int) {
	b.Reset()
	b.WriteString(`{"urls":[`)
	for j, k := range idx {
		if j > 0 {
			b.WriteByte(',')
		}
		b.Write(pool[k].quoted)
	}
	b.WriteString("]}")
}

// runOpen measures classify_open: a cascade server driven at a closed
// loop and at two fixed arrival rates.
func runOpen(cfg *config, c *corpus) (*e2e, error) {
	ref, err := referenceCascade(c)
	if err != nil {
		return nil, err
	}
	refScores, err := poolReference(ref, c.pool)
	ref.Close()
	if err != nil {
		return nil, err
	}
	slot := cfg.path(slotFile)
	if err := copyFile(slot, c.fastPath); err != nil {
		return nil, err
	}
	res := &e2e{}
	args := []string{"-model", "fast=" + slot, "-model", "slow=" + c.slowPath, "-cascade", "cascade=fast,slow"}
	srv, err := startTarget(cfg, args, "/v1/classify?model=cascade", res)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	client := newClient()
	target := srv.base + "/v1/classify?model=cascade"
	newCaller := func(p phase) func(w int) caller {
		src := &batchSource{seq: newBatchSeq(len(c.pool), cfg.seed, phaseStream(p.name))}
		return func(int) caller {
			var body, resp bytes.Buffer
			var answers []answer
			return func(begin func() time.Time) (time.Time, tally, error) {
				idx, pos := src.next()
				classifyBody(&body, c.pool, idx)
				req, err := http.NewRequest(http.MethodPost, target, bytes.NewReader(body.Bytes()))
				if err != nil {
					return time.Time{}, tally{}, err
				}
				req.Header.Set("Content-Type", "application/json")
				begin()
				end, err := roundTrip(client, req, &resp)
				if err != nil {
					return end, tally{}, err
				}
				answers, err = parseClassify(resp.Bytes(), answers)
				if err != nil {
					return end, tally{}, err
				}
				urls, labels, sampled := batchCheck(c.pool, idx, pos)
				t, err := verify(answers, urls, labels, sampled, func(i int) [langid.NumLanguages]float64 { return refScores[idx[i]] })
				return end, t, err
			}
		}
	}
	if err := measure(cfg, res, func() (time.Duration, error) { return procCPU(srv.pid()) }, newCaller); err != nil {
		return nil, err
	}
	if res.rssMB, err = procHWM(srv.pid()); err != nil {
		return nil, err
	}
	httpReloader(client, srv.base, slot, c).probe(res)
	return res, nil
}

// roundTrip sends req and reads the whole response into into; a status
// other than 200 is an error.
func roundTrip(client *http.Client, req *http.Request, into *bytes.Buffer) (time.Time, error) {
	resp, err := client.Do(req)
	if err != nil {
		return time.Now(), err
	}
	into.Reset()
	_, err = into.ReadFrom(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if err != nil {
		return end, err
	}
	if resp.StatusCode != http.StatusOK {
		return end, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(into.Bytes()))
	}
	return end, nil
}

// referenceCascade builds the in-process reference the server's answers
// are compared with: the public registry over the same files.
func referenceCascade(c *corpus) (*urllangid.Registry, error) {
	reg := urllangid.NewRegistry(urllangid.RegistryOptions{})
	if _, err := reg.Load("fast", c.fastPath); err != nil {
		reg.Close()
		return nil, err
	}
	if _, err := reg.Load("slow", c.slowPath); err != nil {
		reg.Close()
		return nil, err
	}
	if _, err := reg.InstallCascade("cascade", "fast", "slow", urllangid.CascadeConfig{}); err != nil {
		reg.Close()
		return nil, err
	}
	return reg, nil
}

// poolReference classifies every pool URL through the reference's
// single-URL path, once, before anything is timed.
func poolReference(ref *urllangid.Registry, pool []entry) ([][langid.NumLanguages]float64, error) {
	out := make([][langid.NumLanguages]float64, len(pool))
	for i, e := range pool {
		r, err := ref.Classify("cascade", e.url)
		if err != nil {
			return nil, err
		}
		out[i] = r.Scores()
	}
	return out, nil
}

// segmentSource hands out one phase's stream segments in sequence
// order.
type segmentSource struct {
	mu  sync.Mutex
	seq *segSeq
	n   int
}

func (s *segmentSource) next(pool []entry) (lines []line, pos int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lines, pos = s.seq.segment(pool), s.n
	s.n += len(lines)
	return lines, pos
}

// streamBody renders a segment as NDJSON in each line's shape.
func streamBody(b *bytes.Buffer, lines []line) {
	b.Reset()
	for _, l := range lines {
		switch l.shape {
		case 1:
			b.Write(quote(l.text))
		case 2:
			b.WriteString(`{"url":`)
			b.Write(quote(l.text))
			b.WriteByte('}')
		default:
			b.WriteString(l.text)
		}
		b.WriteByte('\n')
	}
}

// quote renders s as a JSON string.
func quote(s string) []byte {
	q, err := json.Marshal(s)
	if err != nil {
		return []byte(`""`)
	}
	return q
}

// runStream measures stream_reload: closed-loop NDJSON segments against
// a cached single-model server whose model file is swapped and reloaded
// every streamReloadEvery.
func runStream(cfg *config, c *corpus) (*e2e, error) {
	refModel, err := urllangid.OpenFile(c.fastPath)
	if err != nil {
		return nil, err
	}
	if m, ok := refModel.(interface{ Close() error }); ok {
		defer m.Close()
	}
	slot := cfg.path(slotFile)
	if err := copyFile(slot, c.fastPath); err != nil {
		return nil, err
	}
	res := &e2e{}
	srv, err := startTarget(cfg, []string{"-model", "fast=" + slot}, "/v1/classify", res)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	client := newClient()
	target := srv.base + "/v1/stream"
	newCaller := func(p phase) func(w int) caller {
		src := &segmentSource{seq: newSegSeq(len(c.pool), cfg.seed, phaseStream(p.name))}
		return func(int) caller {
			var body, resp bytes.Buffer
			var answers []answer
			return func(begin func() time.Time) (time.Time, tally, error) {
				lines, pos := src.next(c.pool)
				streamBody(&body, lines)
				req, err := http.NewRequest(http.MethodPost, target, bytes.NewReader(body.Bytes()))
				if err != nil {
					return time.Time{}, tally{}, err
				}
				req.Header.Set("Content-Type", "application/x-ndjson")
				begin()
				end, err := roundTrip(client, req, &resp)
				if err != nil {
					return end, tally{}, err
				}
				answers, err = parseStream(resp.Bytes(), answers)
				if err != nil {
					return end, tally{}, err
				}
				urls, labels, sampled := lineCheck(c.pool, lines, pos)
				t, err := verify(answers, urls, labels, sampled, func(i int) [langid.NumLanguages]float64 {
					return refModel.Classify(urls[i]).Scores()
				})
				return end, t, err
			}
		}
	}

	// Swaps run beside the measured phases on their own connection.
	rl := httpReloader(client, srv.base, slot, c)
	stop := make(chan struct{})
	swapsDone := make(chan struct{})
	go func() {
		defer close(swapsDone)
		tick := time.NewTicker(streamReloadEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			d, err := rl.swap()
			if err != nil {
				res.fail(err)
				continue
			}
			res.busyReloads = append(res.busyReloads, d)
		}
	}()
	err = measure(cfg, res, func() (time.Duration, error) { return procCPU(srv.pid()) }, newCaller)
	close(stop)
	<-swapsDone
	if err != nil {
		return nil, err
	}
	if res.rssMB, err = procHWM(srv.pid()); err != nil {
		return nil, err
	}
	rl.probe(res)
	return res, nil
}

// lineCheck turns a segment into the URLs, labels and sample marks
// verify wants.
func lineCheck(pool []entry, lines []line, pos int) (urls []string, labels []langid.Language, sampled []bool) {
	urls = make([]string, len(lines))
	labels = make([]langid.Language, len(lines))
	sampled = make([]bool, len(lines))
	for j, l := range lines {
		urls[j], labels[j] = l.text, pool[l.base].lang
		sampled[j] = (pos+j)%sampleEvery == 0
	}
	return urls, labels, sampled
}
