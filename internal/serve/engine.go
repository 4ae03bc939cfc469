// Package serve is the high-throughput serving layer: a worker-pool
// batch engine with a sharded result cache over any classifier, plus the
// HTTP front end cmd/urllangid-serve exposes.
//
// The paper's motivating application (§1) is a crawler that classifies
// millions of *uncrawled* URLs to avoid downloading wrong-language
// pages; at that scale classification throughput, not accuracy, is the
// binding constraint, and frontier URLs repeat hosts so heavily that a
// modest cache absorbs most of the scoring work. The engine is built for
// exactly that workload: lock-light cached reads, in-batch
// deduplication of repeated links, batch fan-out across a persistent
// worker pool, and compiled-snapshot scoring underneath.
package serve

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"urllangid/internal/langid"
	"urllangid/internal/obs"
)

// Predictor is the scoring contract the engine serves: the five
// per-language decision scores for a URL, in canonical language order.
// *core.System, *compiled.Snapshot and the cascade all satisfy it.
type Predictor interface {
	Scores(rawURL string) [langid.NumLanguages]float64
}

// KeyScorer is the one optional contract: a predictor that declares
// which URLs it considers equivalent and scores a URL already reduced
// to that key. Compiled snapshots key by the normalized URL, so scheme
// and percent-encoding variants share one cache entry and the miss path
// skips a second normalization. Predictors without it are cached under
// the raw URL, which is always sound (custom features score the raw
// string's length, so normalizing for them would change answers).
// Implementations must guarantee ScoresForKey(CacheKey(u)) == Scores(u)
// for every URL.
type KeyScorer interface {
	CacheKey(rawURL string) string
	ScoresForKey(key string) [langid.NumLanguages]float64
}

// Options configures an Engine. The zero value serves with GOMAXPROCS
// workers and caching disabled.
type Options struct {
	// Workers bounds batch parallelism (default GOMAXPROCS). The pool is
	// persistent: workers start with the engine and run until Close.
	Workers int
	// CacheCapacity is the total cached-result budget across shards;
	// 0 disables caching.
	CacheCapacity int
	// CacheShards is the shard count, rounded up to a power of two
	// (default 16). More shards spread write contention at a small fixed
	// memory cost.
	CacheShards int
	// NoStats disables metrics collection entirely — no clock reads on
	// the classify path. StatsSnapshot then reports zeroes.
	NoStats bool
}

// Result is one URL's classification: the shared langid.Result value
// (scores plus decision bits) tagged with the URL it answers and whether
// the cache served it.
type Result struct {
	URL string
	langid.Result
	Cached bool
}

// Engine classifies URLs through a predictor with batching and caching.
// It is safe for concurrent use. New starts the worker pool; Close
// releases it — an engine left un-Closed keeps its idle workers alive.
type Engine struct {
	pred      Predictor
	keyScorer KeyScorer // nil when pred keys by the raw URL
	cache     *lruCache
	stats     *Stats
	workers   int

	// The persistent pool: ClassifyBatch offers assist closures on tasks;
	// workers run them until quit closes. Offers never block — a
	// saturated (or closed) pool only costs parallelism, never progress,
	// because the calling goroutine always works the batch too. mu
	// serialises offers against Close (read-locked once per batch, not
	// per URL) so no closure can slip into tasks after Close has drained
	// it — a stranded closure would pin its batch's memory for the
	// engine's remaining lifetime.
	tasks     chan func()
	quit      chan struct{}
	mu        sync.RWMutex
	closed    bool
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// New builds an engine over p and starts its worker pool. Callers that
// create engines dynamically must Close them; a handful of
// process-lifetime engines may skip it.
func New(p Predictor, opts Options) *Engine {
	e := &Engine{
		pred:    p,
		cache:   newCache(opts.CacheShards, opts.CacheCapacity),
		workers: opts.Workers,
	}
	if !opts.NoStats {
		e.stats = NewStats()
	}
	if e.workers <= 0 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	e.keyScorer, _ = p.(KeyScorer)
	if e.workers > 1 {
		// The calling goroutine always participates in its batch, so
		// workers-1 pool goroutines deliver the full `workers`-way
		// parallelism; a pool of `workers` would leave one always idle.
		e.tasks = make(chan func(), e.workers-1)
		e.quit = make(chan struct{})
		for i := 0; i < e.workers-1; i++ {
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				for {
					select {
					case <-e.quit:
						return
					case fn := <-e.tasks:
						fn()
					}
				}
			}()
		}
	}
	return e
}

// Close stops the worker pool and waits for its goroutines to exit. It
// is idempotent. Batches in flight complete normally (their calling
// goroutine finishes the work), and later ClassifyBatch calls still
// return correct results, merely without pool parallelism.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		if e.quit == nil {
			return
		}
		// Taking the write lock waits out any in-flight recruit loops;
		// once closed is set no new offer can start, so the drain below
		// is final.
		e.mu.Lock()
		e.closed = true
		e.mu.Unlock()
		close(e.quit)
		e.wg.Wait()
		// Drop any assist closures still buffered so the batches they
		// capture can be collected; their callers complete the work
		// themselves (the pool only ever assists).
		for {
			select {
			case <-e.tasks:
			default:
				return
			}
		}
	})
	return nil
}

// Stats returns the engine's live metrics collector (shared with the
// HTTP layer, which adds request counts). Nil when Options.NoStats was
// set; the recording methods tolerate a nil receiver.
func (e *Engine) Stats() *Stats { return e.stats }

// Predictor returns the raw predictor the engine wraps. The serving
// layers type-assert it for optional contracts the engine itself does
// not surface — a cascade's tier stats, for instance.
func (e *Engine) Predictor() Predictor { return e.pred }

// StatsSnapshot returns current metrics, including cache occupancy.
func (e *Engine) StatsSnapshot() Snapshot {
	if e.stats == nil {
		return Snapshot{}
	}
	return e.stats.TakeSnapshot(e.CacheEntries())
}

// CacheEntries returns the live cached-result count (0 when caching is
// disabled). Exposed for the metrics scrape, which samples it as a
// per-model gauge.
func (e *Engine) CacheEntries() int {
	if e.cache == nil {
		return 0
	}
	return e.cache.len()
}

// QueueDepth returns the number of batch-assist closures waiting in the
// worker pool's task buffer right now. A persistently full buffer
// (depth ≈ workers-1) means batches arrive faster than the pool can
// assist — the engine is the bottleneck, not the HTTP tier.
func (e *Engine) QueueDepth() int {
	if e.tasks == nil {
		return 0
	}
	return len(e.tasks)
}

// Classify classifies one URL, consulting and populating the cache.
// It never fails: malformed URLs tokenize to nothing and score like any
// other token-free input.
//
//urllangid:hotpath
func (e *Engine) Classify(rawURL string) Result {
	return e.classify(rawURL, nil)
}

// ClassifyTrace is Classify with per-stage span collection: normalize,
// cache-lookup and score wall time accumulate into tr. A nil tr
// disables collection and skips every extra clock read, so the untraced
// hot path is unchanged.
//
//urllangid:hotpath
func (e *Engine) ClassifyTrace(rawURL string, tr *obs.Trace) Result {
	return e.classify(rawURL, tr)
}

func (e *Engine) classify(rawURL string, tr *obs.Trace) Result {
	var start time.Time
	if e.stats != nil {
		start = time.Now()
	}
	var t0 time.Time
	r := Result{URL: rawURL}
	if e.cache == nil {
		if tr != nil {
			t0 = time.Now()
		}
		r.Result = langid.NewResult(e.pred.Scores(rawURL))
		if tr != nil {
			tr.Add(obs.StageScore, time.Since(t0))
		}
		if e.stats != nil {
			e.stats.RecordUncached(time.Since(start))
		}
		return r
	}
	key := rawURL
	if e.keyScorer != nil {
		if tr != nil {
			t0 = time.Now()
		}
		key = e.keyScorer.CacheKey(rawURL)
		if tr != nil {
			tr.Add(obs.StageNormalize, time.Since(t0))
		}
	}
	if tr != nil {
		t0 = time.Now()
	}
	scores, ok := e.cache.get(key)
	if tr != nil {
		tr.Add(obs.StageCacheLookup, time.Since(t0))
	}
	if ok {
		r.Result, r.Cached = langid.NewResult(scores), true
		if e.stats != nil {
			e.stats.RecordURL(time.Since(start), true)
		}
		return r
	}
	if tr != nil {
		t0 = time.Now()
	}
	if e.keyScorer != nil {
		// The key already carries the predictor's normal form; score
		// from it directly rather than re-normalizing the raw URL.
		scores = e.keyScorer.ScoresForKey(key)
	} else {
		scores = e.pred.Scores(rawURL)
	}
	if tr != nil {
		tr.Add(obs.StageScore, time.Since(t0))
	}
	r.Result = langid.NewResult(scores)
	e.cache.put(key, scores)
	if e.stats != nil {
		e.stats.RecordURL(time.Since(start), false)
	}
	return r
}

// ClassifyBatch classifies urls across the worker pool, preserving input
// order in the result slice. Identical URLs within the batch are scored
// once and the result fanned out — crawl frontiers repeat links heavily,
// and before the cache warms each duplicate would otherwise pay a full
// scoring. The caller's goroutine and any pool workers it recruits pull
// work from a shared atomic counter, so a slow URL (cold cache, long
// path) never stalls a whole pre-assigned chunk, and a busy pool only
// reduces parallelism — the batch always completes.
func (e *Engine) ClassifyBatch(urls []string) []Result {
	return e.ClassifyBatchTrace(urls, nil)
}

// ClassifyBatchTrace is ClassifyBatch with per-stage span collection:
// every URL's normalize, cache-lookup and score time accumulates into
// tr (concurrently — Trace adds are atomic), so a slow batch reports
// where its wall time actually went. A nil tr adds no clock reads.
func (e *Engine) ClassifyBatchTrace(urls []string, tr *obs.Trace) []Result {
	out := make([]Result, len(urls))
	n := len(urls)
	if n == 0 {
		return out
	}

	// Dedup pass: work holds the index of each first occurrence; first
	// maps a URL to that index so copies can find their primary.
	var first map[string]int32
	work := make([]int32, 0, n)
	if n > 1 {
		first = make(map[string]int32, n)
		for i, u := range urls {
			if _, dup := first[u]; dup {
				continue
			}
			first[u] = int32(i)
			work = append(work, int32(i))
		}
	} else {
		work = append(work, 0)
	}

	workers := e.workers
	if workers > len(work) {
		workers = len(work)
	}
	if workers <= 1 || e.tasks == nil {
		for _, i := range work {
			out[i] = e.classify(urls[i], tr)
		}
	} else {
		var pending sync.WaitGroup
		pending.Add(len(work))
		var next atomic.Int64
		run := func() {
			for {
				k := int(next.Add(1)) - 1
				if k >= len(work) {
					return
				}
				i := work[k]
				out[i] = e.classify(urls[i], tr)
				pending.Done()
			}
		}
		// Recruit up to workers-1 assists; the non-blocking offer means
		// a saturated pool degrades to caller-only execution. The read
		// lock excludes Close's drain, so a closed engine never ends up
		// with a stranded closure in tasks.
		e.mu.RLock()
		if !e.closed {
		recruit:
			for w := 1; w < workers; w++ {
				select {
				case e.tasks <- run:
				default:
					break recruit // buffer full: further offers fail too
				}
			}
		}
		e.mu.RUnlock()
		run()
		pending.Wait()
	}

	if len(work) < n {
		cached := e.cache != nil
		for i, u := range urls {
			if j := first[u]; int(j) != i {
				r := out[j]
				r.URL = u
				// With a cache, the primary's entry would have served
				// this copy; report it the way a Classify call would.
				r.Cached = r.Cached || cached
				out[i] = r
				e.stats.RecordDeduped(cached)
			}
		}
	}
	return out
}
