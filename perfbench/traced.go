package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"urllangid/internal/cascade"
	"urllangid/internal/compiled"
	"urllangid/internal/langid"
	"urllangid/internal/modelfile"
	"urllangid/internal/obs"
	"urllangid/internal/registry"
	"urllangid/internal/serve"
)

// The traced run replays a fixed prefix of the workload's replay
// sequence in this process, one request at a time: first untraced, then
// through timing wrappers around each layer. Both replays go through
// serve.NewHandler over internal/registry (the library workload through
// the registry alone, as the public Registry does), built with the
// server's defaults.
const (
	replayBatches     = 2000 // classify requests or library calls
	replaySegments    = 96   // stream segments
	replayReloadEvery = 16   // stream segments between model swaps
	serverCache       = 1 << 20
	serverCacheShards = 16
	// additivityTolerance bounds |Σself − Σoverlap − Σroot| / Σroot.
	additivityTolerance = 0.01
	// keptRequests is how many requests' spans are written out.
	keptRequests = 32
)

// replayItem is one replayed request, or one library call.
type replayItem struct {
	urls        []string
	body        []byte
	reloadAfter bool // stream: swap the model file after this segment
}

func replayItems(cfg *config, c *corpus) []replayItem {
	var items []replayItem
	if cfg.workload == "stream_reload" {
		seq := newSegSeq(len(c.pool), cfg.seed, streamReplay)
		var b bytes.Buffer
		for i := 0; i < replaySegments; i++ {
			lines := seq.segment(c.pool)
			urls, _, _ := lineCheck(c.pool, lines, 0)
			streamBody(&b, lines)
			items = append(items, replayItem{urls: urls, body: bytes.Clone(b.Bytes()),
				reloadAfter: (i+1)%replayReloadEvery == 0})
		}
		return items
	}
	seq := newBatchSeq(len(c.pool), cfg.seed, streamReplay)
	var b bytes.Buffer
	for i := 0; i < replayBatches; i++ {
		idx := seq.next()
		urls, _, _ := batchCheck(c.pool, idx, 0)
		classifyBody(&b, c.pool, idx)
		items = append(items, replayItem{urls: urls, body: bytes.Clone(b.Bytes())})
	}
	return items
}

func (it replayItem) request(workload string) *http.Request {
	target := "/v1/classify?model=cascade"
	if workload == "stream_reload" {
		target = "/v1/stream"
	}
	return httptest.NewRequest(http.MethodPost, target, bytes.NewReader(it.body))
}

// replayWriter captures a response in memory. When tracing, it marks
// the end of every Write and Flush together with the handler's respond
// time accumulated before it, from which each respond interval is
// rebuilt.
type replayWriter struct {
	header http.Header
	code   int
	body   bytes.Buffer
	rec    *recorder
	tr     *obs.Trace
	marks  []writeMark
}

type writeMark struct {
	end           int64
	respondBefore time.Duration
}

func newReplayWriter(rec *recorder) *replayWriter {
	return &replayWriter{header: make(http.Header), rec: rec}
}

func (w *replayWriter) reset(tr *obs.Trace) {
	clear(w.header)
	w.code = 0
	w.body.Reset()
	w.tr = tr
	w.marks = w.marks[:0]
}

func (w *replayWriter) Header() http.Header { return w.header }

func (w *replayWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *replayWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	before := w.tr.Stage(obs.StageRespond)
	n, _ := w.body.Write(p)
	if w.rec != nil {
		w.marks = append(w.marks, writeMark{end: w.rec.now(), respondBefore: before})
	}
	return n, nil
}

func (w *replayWriter) Flush() {
	if w.rec != nil && len(w.marks) > 0 {
		w.marks[len(w.marks)-1].end = w.rec.now()
	}
}

// tierWrapper times one tier's calls. It implements every contract the
// v3 snapshot does — Scores, CacheKey, ScoresForKey, Predictions,
// Confidence — so the engine and the cascade take the same paths
// through it as through the bare snapshot.
type tierWrapper struct {
	snap *compiled.Snapshot
	kind kind
	rec  *recorder
	warm atomic.Bool
	// firstNs is the first scoring call's duration: the one that pays
	// the v3 file's deferred payload verification.
	firstNs atomic.Int64
}

func (w *tierWrapper) scored(key string, t0 int64, warm bool) {
	w.rec.add(w.kind, t0, key, !warm)
	if !warm && w.warm.CompareAndSwap(false, true) {
		w.firstNs.Store(w.rec.now() - t0)
	}
}

func (w *tierWrapper) Scores(rawURL string) [langid.NumLanguages]float64 {
	warm, t0 := w.warm.Load(), w.rec.now()
	s := w.snap.Scores(rawURL)
	w.scored(rawURL, t0, warm)
	return s
}

func (w *tierWrapper) ScoresForKey(key string) [langid.NumLanguages]float64 {
	warm, t0 := w.warm.Load(), w.rec.now()
	s := w.snap.ScoresForKey(key)
	w.scored(key, t0, warm)
	return s
}

func (w *tierWrapper) Predictions(rawURL string) []langid.Prediction {
	warm, t0 := w.warm.Load(), w.rec.now()
	p := w.snap.Predictions(rawURL)
	w.scored(rawURL, t0, warm)
	return p
}

func (w *tierWrapper) CacheKey(rawURL string) string {
	t0 := w.rec.now()
	k := w.snap.CacheKey(rawURL)
	w.rec.add(kNormalize, t0, rawURL, false)
	return k
}

func (w *tierWrapper) Confidence(margin float64) (float64, bool) { return w.snap.Confidence(margin) }

// cascadeWrapper times the program's own cascade per URL. Like
// *cascade.Cascade it offers Scores but no cache key, so the engine
// serves it uncached through the same path.
type cascadeWrapper struct {
	c   *cascade.Cascade
	rec *recorder
}

func (w *cascadeWrapper) Scores(rawURL string) [langid.NumLanguages]float64 {
	t0 := w.rec.now()
	s := w.c.Scores(rawURL)
	w.rec.add(kCascade, t0, rawURL, false)
	return s
}

func (w *cascadeWrapper) Predictions(rawURL string) []langid.Prediction {
	return langid.PredictionsFromScores(w.Scores(rawURL))
}

// tracedResolver times the handler's per-request registry acquire.
type tracedResolver struct {
	reg *registry.Registry
	rec *recorder
}

func (t tracedResolver) Resolve(name string) (*serve.Engine, serve.ModelInfo, func(), error) {
	t0 := t.rec.now()
	e, info, release, err := t.reg.Resolve(name)
	t.rec.add(kAcquire, t0, name, false)
	return e, info, release, err
}

func (t tracedResolver) Models() []serve.ModelInfo { return t.reg.Models() }

func (t tracedResolver) Reload(name string) (serve.ModelInfo, bool, error) { return t.reg.Reload(name) }

// replayed is one replay's outcome.
type replayed struct {
	wall    time.Duration // Σ per-request handling time
	scores  [][langid.NumLanguages]float64
	urls    int64
	reloads []float64 // ms per reload
	loadMs  float64   // registry set-up: load every file, install the cascade
	allocs  uint64
	bytes   uint64
	failed  int64
	dropped int64 // spans the recorder had no room for
	errs    []error
}

func (r *replayed) fail(err error) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, err)
	}
}

// record checks one response's answers and stores their scores in
// order: one answer per URL, in input order.
func (r *replayed) record(answers []answer, it replayItem) {
	if len(answers) != len(it.urls) {
		r.fail(fmt.Errorf("replay: %d answers for %d URLs", len(answers), len(it.urls)))
		for range it.urls {
			r.scores = append(r.scores, [langid.NumLanguages]float64{})
		}
		return
	}
	for j, a := range answers {
		if string(a.url) != it.urls[j] {
			r.fail(fmt.Errorf("replay: answer %d is for %q, want %q", j, a.url, it.urls[j]))
		}
		r.scores = append(r.scores, a.scores)
	}
}

// recordResults stores a library call's scores, one result per URL.
func (r *replayed) recordResults(res []serve.Result, it replayItem) {
	if len(res) != len(it.urls) {
		r.fail(fmt.Errorf("replay: %d results for %d URLs", len(res), len(it.urls)))
	}
	for j := range it.urls {
		var sc [langid.NumLanguages]float64
		if j < len(res) {
			sc = res[j].Scores()
		}
		r.scores = append(r.scores, sc)
	}
}

func (r *replayed) parse(workload string, w *replayWriter, it replayItem, answers []answer) []answer {
	var err error
	if w.code != http.StatusOK {
		err = fmt.Errorf("replay: status %d: %s", w.code, bytes.TrimSpace(w.body.Bytes()))
	} else if workload == "stream_reload" {
		answers, err = parseStream(w.body.Bytes(), answers)
	} else {
		answers, err = parseClassify(w.body.Bytes(), answers)
	}
	if err != nil {
		r.fail(err)
		answers = answers[:0]
	}
	r.record(answers, it)
	return answers
}

// replayUntraced replays items against the stack urllangid-serve builds.
func replayUntraced(cfg *config, c *corpus, slot string, items []replayItem) (*replayed, error) {
	out := &replayed{scores: make([][langid.NumLanguages]float64, 0, len(items)*len(items[0].urls))}
	reg := registry.New(registry.Options{Engine: serve.Options{CacheCapacity: serverCache, CacheShards: serverCacheShards}})
	defer reg.Close()
	t0 := time.Now()
	if _, err := reg.LoadFile("fast", slot); err != nil {
		return nil, err
	}
	if cfg.workload != "stream_reload" {
		if _, err := reg.LoadFile("slow", c.slowPath); err != nil {
			return nil, err
		}
		if _, err := reg.InstallCascade("cascade", "fast", "slow", cascade.Config{}); err != nil {
			return nil, err
		}
	}
	out.loadMs = ms(time.Since(t0))
	h := serve.NewHandler(reg, serve.HandlerOptions{})
	reqs := make([]*http.Request, len(items))
	for i, it := range items {
		reqs[i] = it.request(cfg.workload)
	}
	w := newReplayWriter(nil)
	answers := make([]answer, 0, segmentLines)
	rl := &reloader{slot: slot, files: [2]string{c.fastPath, c.fastUncalPath}, version: 1,
		reload: func() (int64, bool, error) {
			if cfg.workload == "library_batch" {
				info, changed, err := reg.Reload("fast")
				return info.Version, changed, err
			}
			w.reset(nil)
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/models/fast/reload", nil))
			var rb reloadBody
			if w.code != http.StatusOK {
				return 0, false, fmt.Errorf("reload: status %d", w.code)
			}
			err := json.Unmarshal(w.body.Bytes(), &rb)
			return rb.Model.Version, rb.Changed, err
		}}
	swap := func() {
		d, err := rl.swap()
		if err != nil {
			out.fail(err)
			return
		}
		out.reloads = append(out.reloads, d)
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i, it := range items {
		if cfg.workload == "library_batch" {
			t0 := time.Now()
			l, err := reg.Acquire("cascade")
			if err != nil {
				return nil, err
			}
			res := l.Engine().ClassifyBatch(it.urls)
			l.Release()
			out.wall += time.Since(t0)
			out.recordResults(res, it)
		} else {
			w.reset(nil)
			t0 := time.Now()
			h.ServeHTTP(w, reqs[i])
			out.wall += time.Since(t0)
			answers = out.parse(cfg.workload, w, it, answers)
		}
		out.urls += int64(len(it.urls))
		if it.reloadAfter {
			swap()
		}
	}
	runtime.ReadMemStats(&m1)
	out.allocs = m1.Mallocs - m0.Mallocs
	out.bytes = m1.TotalAlloc - m0.TotalAlloc
	if cfg.workload != "stream_reload" {
		for i := 0; i < reloadProbes; i++ {
			swap()
		}
	}
	return out, nil
}

// layerTotals accumulates the traced replay's per-layer figures.
type layerTotals struct {
	requests      int64
	urls          int64
	rootNs        int64
	selfNs        [numKinds]int64
	count         [numKinds]int64
	warmNs        [numKinds]int64 // durations of spans that paid no first-call verification
	warmCount     [numKinds]int64
	overlapNs     int64
	coldSpans     int64
	stage         [obs.NumStages]time.Duration
	respBytes     int64
	opens         []float64 // µs per modelfile.OpenPath
	firstScoresMs []float64
	orphans       int64
}

// tracedStack is the registry and handler the traced replay drives,
// with every tier behind a tierWrapper.
type tracedStack struct {
	rec    *recorder
	reg    *registry.Registry
	h      http.Handler
	tiers  []*tierWrapper
	snaps  []*compiled.Snapshot
	totals *layerTotals
}

func (s *tracedStack) open(path string, k kind) (*tierWrapper, error) {
	t0 := s.rec.now()
	om, err := modelfile.OpenPath(path)
	s.totals.opens = append(s.totals.opens, float64(s.rec.now()-t0)/1e3)
	if err != nil {
		return nil, err
	}
	if om.Snap == nil {
		return nil, fmt.Errorf("%s: not a compiled snapshot", path)
	}
	s.snaps = append(s.snaps, om.Snap)
	w := &tierWrapper{snap: om.Snap, kind: k, rec: s.rec}
	s.tiers = append(s.tiers, w)
	return w, nil
}

func (s *tracedStack) install(name, path string, k kind) (serve.ModelInfo, error) {
	w, err := s.open(path, k)
	if err != nil {
		return serve.ModelInfo{}, err
	}
	return s.reg.Install(name, w, w.snap.Describe(), w.snap.Mode())
}

func (s *tracedStack) close() {
	s.reg.Close()
	for _, sn := range s.snaps {
		sn.Close()
	}
}

func newTracedStack(cfg *config, c *corpus, slot string, totals *layerTotals) (*tracedStack, error) {
	s := &tracedStack{rec: newRecorder(), totals: totals}
	cacheCap := serverCache
	if cfg.workload != "stream_reload" {
		// Only the uncached cascade slot serves here, as with
		// InstallCascade's own engine.
		cacheCap = 0
	}
	s.reg = registry.New(registry.Options{Engine: serve.Options{CacheCapacity: cacheCap, CacheShards: serverCacheShards}})
	if _, err := s.install("fast", slot, kFast); err != nil {
		s.close()
		return nil, err
	}
	if cfg.workload != "stream_reload" {
		if _, err := s.install("slow", c.slowPath, kSlow); err != nil {
			s.close()
			return nil, err
		}
		info, err := s.reg.InstallCascade("cascade", "fast", "slow", cascade.Config{})
		if err != nil {
			s.close()
			return nil, err
		}
		l, err := s.reg.Acquire("cascade")
		if err != nil {
			s.close()
			return nil, err
		}
		cc, ok := l.Engine().Predictor().(*cascade.Cascade)
		l.Release()
		if !ok {
			s.close()
			return nil, fmt.Errorf("cascade slot serves %T", l.Engine().Predictor())
		}
		if _, err := s.reg.Install("cascade", &cascadeWrapper{c: cc, rec: s.rec}, info.Model, info.Mode); err != nil {
			s.close()
			return nil, err
		}
	}
	s.h = serve.NewHandler(tracedResolver{reg: s.reg, rec: s.rec}, serve.HandlerOptions{})
	return s, nil
}

// replayTraced replays items through the wrapped stack, checks every
// answer against the untraced replay's, and accumulates per-layer
// figures from the spans.
func replayTraced(cfg *config, c *corpus, slot string, items []replayItem, base *replayed, spansOut *os.File) (*replayed, *layerTotals, error) {
	if err := copyFile(slot, c.fastPath); err != nil {
		return nil, nil, err
	}
	totals := &layerTotals{}
	st, err := newTracedStack(cfg, c, slot, totals)
	if err != nil {
		return nil, nil, err
	}
	defer st.close()
	rec := st.rec
	rec.take() // set-up spans are not part of any request
	out := &replayed{scores: make([][langid.NumLanguages]float64, 0, len(base.scores))}
	w := newReplayWriter(rec)
	answers := make([]answer, 0, segmentLines)
	files := [2]string{c.fastUncalPath, c.fastPath}
	version := int64(1)
	enc := json.NewEncoder(spansOut)
	for i, it := range items {
		rec.req.Store(int32(i))
		tr := new(obs.Trace)
		if cfg.workload == "library_batch" {
			t0 := rec.now()
			e, _, release, err := tracedResolver{reg: st.reg, rec: rec}.Resolve("cascade")
			if err != nil {
				return nil, nil, err
			}
			e0 := rec.now()
			res := e.ClassifyBatchTrace(it.urls, tr)
			rec.add(kEngine, e0, "", false)
			release()
			rec.add(kCall, t0, "", false)
			out.recordResults(res, it)
		} else {
			req := it.request(cfg.workload)
			req = req.WithContext(obs.ContextWithTrace(context.Background(), tr))
			w.reset(tr)
			t0 := rec.now()
			st.h.ServeHTTP(w, req)
			rec.add(kHTTP, t0, "", false)
			answers = out.parse(cfg.workload, w, it, answers)
			totals.respBytes += int64(w.body.Len())
		}
		spans := rec.take()
		tree := buildTree(cfg.workload, spans, w.marks, tr.Stage(obs.StageRespond))
		if tree == nil {
			return nil, nil, fmt.Errorf("traced request %d recorded no single root span", i)
		}
		out.wall += time.Duration(tree[0].dur())
		totals.add(tree, tr)
		totals.urls += int64(len(it.urls))
		out.urls += int64(len(it.urls))
		if i < keptRequests {
			writeSpans(enc, i, tree)
		}
		if it.reloadAfter {
			version++
			if err := copyFile(slot, files[version%2]); err != nil {
				return nil, nil, err
			}
			info, err := st.install("fast", slot, kFast)
			if err != nil {
				return nil, nil, err
			}
			if info.Version != version {
				out.fail(fmt.Errorf("traced swap installed version %d, want %d", info.Version, version))
			}
			rec.take()
		}
	}
	if cfg.workload != "stream_reload" {
		for i := 0; i < reloadProbes; i++ {
			version++
			if err := copyFile(slot, files[version%2]); err != nil {
				return nil, nil, err
			}
			if _, err := st.open(slot, kFast); err != nil {
				return nil, nil, err
			}
		}
	}
	out.dropped = rec.dropped.Load()
	for _, t := range st.tiers {
		if t.warm.Load() {
			totals.firstScoresMs = append(totals.firstScoresMs, float64(t.firstNs.Load())/1e6)
		}
	}
	// Every traced answer must match the untraced replay's bit for bit.
	if len(out.scores) != len(base.scores) {
		out.fail(fmt.Errorf("traced replay answered %d URLs, untraced %d", len(out.scores), len(base.scores)))
	} else {
		for i := range out.scores {
			for li := range out.scores[i] {
				if math.Float64bits(out.scores[i][li]) != math.Float64bits(base.scores[i][li]) {
					out.fail(fmt.Errorf("traced answer %d differs from the untraced replay's", i))
					break
				}
			}
		}
	}
	return out, totals, nil
}

// buildTree turns one request's spans into a tree rooted at index 0:
// the handler call (or library call) with the acquire, engine and
// respond spans under it, the per-URL spans under their engine batch,
// and each tier call under the cascade call for the same URL. Engine
// batches and respond intervals of HTTP requests are rebuilt: respond k
// ends at the k-th write or flush and lasts the respond time the
// handler accumulated for it (never starting before the batch's last
// per-URL call ended); batch k runs from its first per-URL call to
// respond k's start.
func buildTree(workload string, spans []span, marks []writeMark, respondTotal time.Duration) []span {
	tree := make([]span, 0, len(spans)+2*len(marks)+1)
	rootKind := kHTTP
	if workload == "library_batch" {
		rootKind = kCall
	}
	for _, s := range spans {
		if s.kind == rootKind {
			s.parent = -1
			tree = append(tree, s)
		}
	}
	if len(tree) != 1 {
		return nil
	}
	req := tree[0].req
	var engines []int
	add := func(s span) int {
		tree = append(tree, s)
		return len(tree) - 1
	}
	for _, s := range spans {
		switch s.kind {
		case kAcquire:
			s.parent = 0
			add(s)
		case kEngine:
			s.parent = 0
			engines = append(engines, add(s))
		}
	}
	if workload != "library_batch" {
		// Batch k's per-URL calls all start after write k-1 and before
		// write k: the handler runs batch, encode, write and flush in
		// turn.
		prevEnd := tree[0].start
		for k, m := range marks {
			next := respondTotal
			if k+1 < len(marks) {
				next = marks[k+1].respondBefore
			}
			d := int64(next - m.respondBefore)
			if d <= 0 {
				continue
			}
			first, last := int64(math.MaxInt64), int64(math.MinInt64)
			for _, s := range spans {
				if isURLSpan(s.kind) && s.start > prevEnd && s.start <= m.end {
					first, last = min(first, s.start), max(last, s.end)
				}
			}
			// A pause between the write and the handler's own clock read
			// lengthens the respond time it reports; the interval never
			// starts before the batch's last call ended.
			rs := span{kind: kRespond, req: req, parent: 0, start: max(m.end-d, last), end: m.end}
			if first != math.MaxInt64 {
				engines = append(engines, add(span{kind: kEngine, req: req, parent: 0, start: first, end: rs.start}))
			}
			add(rs)
			prevEnd = m.end
		}
	}
	engineOf := func(t int64) int32 {
		for _, e := range engines {
			if t >= tree[e].start && t <= tree[e].end {
				return int32(e)
			}
		}
		return -1
	}
	cascadeOf := make(map[string]int32)
	for _, s := range spans {
		if s.kind == kCascade {
			s.parent = engineOf(s.start)
			cascadeOf[s.key] = int32(add(s))
		}
	}
	for _, s := range spans {
		switch s.kind {
		case kFast, kSlow, kNormalize:
			if p, ok := cascadeOf[s.key]; ok && s.kind != kNormalize {
				s.parent = p
			} else {
				s.parent = engineOf(s.start)
			}
			add(s)
		}
	}
	return tree
}

func isURLSpan(k kind) bool {
	return k == kCascade || k == kFast || k == kSlow || k == kNormalize
}

func (t *layerTotals) add(tree []span, tr *obs.Trace) {
	self, overlap := selfTimes(tree)
	t.requests++
	t.rootNs += tree[0].dur()
	for i, s := range tree {
		if i > 0 && s.parent < 0 {
			t.orphans++
		}
		t.selfNs[s.kind] += self[i]
		t.overlapNs += overlap[i]
		t.count[s.kind]++
		if s.cold {
			t.coldSpans++
			continue
		}
		t.warmNs[s.kind] += s.dur()
		t.warmCount[s.kind]++
	}
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		t.stage[st] += tr.Stage(st)
	}
}

// writeSpans writes one request's spans as JSON lines.
func writeSpans(enc *json.Encoder, req int, tree []span) {
	self, _ := selfTimes(tree)
	for i, s := range tree {
		enc.Encode(map[string]any{"req": req, "id": i, "parent": s.parent, "name": s.kind.String(),
			"start_ns": s.start, "end_ns": s.end, "self_ns": self[i]})
	}
}

type layerResult struct {
	metrics   map[string]metric
	attempted int64
	failed    int64
	correct   bool
	details   map[string]any
}

// traceWorkload runs both replays and derives the per-layer metrics.
func traceWorkload(cfg *config, c *corpus, res *e2e) (*layerResult, error) {
	items := replayItems(cfg, c)
	slot := cfg.path(slotFile)
	if err := copyFile(slot, c.fastPath); err != nil {
		return nil, err
	}
	base, err := replayUntraced(cfg, c, slot, items)
	if err != nil {
		return nil, err
	}
	spansPath := filepath.Join(filepath.Dir(cfg.work), "spans-"+cfg.workload+".jsonl")
	f, err := os.Create(spansPath)
	if err != nil {
		return nil, err
	}
	traced, t, err := replayTraced(cfg, c, slot, items, base, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	lr := &layerResult{metrics: make(map[string]metric)}
	put := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		lr.metrics[name] = metric{Value: v, Unit: unit}
	}
	per := func(ns int64, n int64, scale float64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n) / scale
	}
	http := cfg.workload != "library_batch"
	urls := float64(t.urls)
	if http {
		put("serve.http.self_us_per_req", "us", per(t.selfNs[kHTTP], t.count[kHTTP], 1e3))
		put("serve.http.respond_us_per_req", "us", per(int64(t.stage[obs.StageRespond]), t.requests, 1e3))
		put("serve.http.resp_bytes_per_url", "bytes", float64(t.respBytes)/urls)
	} else {
		put("serve.http.self_us_per_req", "us", 0)
		put("serve.http.respond_us_per_req", "us", 0)
		put("serve.http.resp_bytes_per_url", "bytes", 0)
	}
	put("serve.engine.self_us_per_batch", "us", per(t.selfNs[kEngine], t.count[kEngine], 1e3))
	work := t.count[kCascade] + t.count[kNormalize]
	put("serve.engine.dedup_ratio", "ratio", 1-float64(work)/urls)
	lookups, misses := t.count[kNormalize], t.count[kFast]
	if lookups > 0 {
		put("serve.cache.hit_ratio", "ratio", float64(lookups-misses)/float64(lookups))
	} else {
		put("serve.cache.hit_ratio", "ratio", 0)
	}
	put("serve.cache.lookup_ns_per_url", "ns", per(int64(t.stage[obs.StageCacheLookup]), lookups, 1))
	put("urlx.normalize_ns_per_url", "ns", per(t.warmNs[kNormalize], t.warmCount[kNormalize], 1))
	put("compiled.fast.score_ns_per_url", "ns", per(t.warmNs[kFast], t.warmCount[kFast], 1))
	put("compiled.slow.score_ns_per_url", "ns", per(t.warmNs[kSlow], t.warmCount[kSlow], 1))
	put("compiled.first_score_ms", "ms", median(t.firstScoresMs))
	put("cascade.escalation_ratio", "ratio", per(t.count[kSlow], t.count[kCascade], 1))
	put("cascade.self_ns_per_url", "ns", per(t.selfNs[kCascade], t.count[kCascade], 1))
	put("registry.acquire_ns_per_req", "ns", per(t.warmNs[kAcquire], t.warmCount[kAcquire], 1))
	put("registry.reload_ms", "ms", median(base.reloads))
	put("modelfile.open_us", "us", median(t.opens))
	put("registry.load_ms", "ms", base.loadMs)
	put("runtime.allocs_per_url", "count", float64(base.allocs)/float64(base.urls))
	put("runtime.bytes_per_url", "bytes", float64(base.bytes)/float64(base.urls))
	var lags []float64
	var openURLs int64
	for _, ps := range res.phases {
		for _, p := range ps {
			lags = append(lags, p.lag...)
			openURLs += p.tally.urls
		}
	}
	lagP99, _ := percentile(lags, 0.99)
	put("loadgen.lag_p99_ms", "ms", lagP99)
	put("loadgen.client_cpu_ms_per_kurl", "ms", ms(res.clientCPU)/math.Max(1, float64(openURLs)/1000))
	put("trace.overhead", "ratio", float64(traced.wall)/float64(base.wall)-1)
	residual := math.Abs(float64(sumSelf(t)-t.overlapNs-t.rootNs)) / float64(t.rootNs)
	put("trace.additivity_residual", "ratio", residual)

	lr.attempted = int64(2*len(items)) + int64(len(base.reloads)) + base.failed
	lr.failed = base.failed + traced.failed
	for _, e := range append(base.errs, traced.errs...) {
		fmt.Fprintln(os.Stderr, "perfbench: trace:", e)
	}
	dropped := traced.dropped
	lr.correct = lr.failed == 0 && residual <= additivityTolerance && t.orphans == 0 && dropped == 0
	lr.details = map[string]any{
		"requests": t.requests, "urls": t.urls, "untraced_ms": ms(base.wall), "traced_ms": ms(traced.wall),
		"additivity_residual": residual, "additivity_tolerance": additivityTolerance,
		"orphan_spans": t.orphans, "dropped_spans": dropped, "cold_spans": t.coldSpans, "spans_file": spansPath,
		"first_scores_ms": t.firstScoresMs, "reloads_ms": base.reloads,
	}
	return lr, nil
}

func sumSelf(t *layerTotals) int64 {
	var s int64
	for _, v := range t.selfNs {
		s += v
	}
	return s
}
