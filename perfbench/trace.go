package main

import (
	"sort"
	"sync/atomic"
	"time"
)

// Spans are recorded by the benchmark's own wrappers around the calls
// into each layer, kept in memory, and analysed once the replay ends.

// kind names the layer a span times.
type kind uint8

const (
	kHTTP      kind = iota // serve.Handler.ServeHTTP, one per request
	kCall                  // one library ClassifyBatch call, the library root
	kAcquire               // serve.Resolver.Resolve / registry acquire
	kEngine                // serve.Engine batch
	kRespond               // the handler's respond stage (encode and write)
	kCascade               // cascade.Cascade.Scores, one URL
	kFast                  // fast-tier scoring, one URL
	kSlow                  // slow-tier scoring, one URL
	kNormalize             // urlx normal form (the cache key), one URL
	numKinds
)

var kindNames = [numKinds]string{
	"serve.http", "library.call", "registry.acquire", "serve.engine", "serve.respond",
	"cascade", "compiled.fast", "compiled.slow", "urlx.normalize",
}

func (k kind) String() string { return kindNames[k] }

// span is one timed call. parent indexes the request's span slice (-1
// for the root); key is the URL or cache key the call worked on, which
// ties a tier call to the cascade call that made it.
type span struct {
	kind       kind
	req        int32
	parent     int32
	start, end int64 // ns since the recorder's epoch
	key        string
	cold       bool // started before its snapshot's first scoring call returned
}

func (s span) dur() int64 { return s.end - s.start }

// recorder collects spans from any goroutine without locking: a span
// claims the next slot of a preallocated buffer with one atomic add.
// The replay runs one request at a time, sets req before each and takes
// the request's spans after it, when no call is recording.
type recorder struct {
	epoch   time.Time
	req     atomic.Int32
	n       atomic.Int64
	spans   []span
	dropped atomic.Int64 // spans that found the buffer full
}

// maxSpansPerRequest bounds one request's spans: a stream segment
// records at most two per line plus a few per request.
const maxSpansPerRequest = 4*segmentLines + 64

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, maxSpansPerRequest)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// add records a span that ended now.
func (r *recorder) add(k kind, start int64, key string, cold bool) {
	end := r.now()
	i := r.n.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return
	}
	r.spans[i] = span{kind: k, req: r.req.Load(), parent: -1, start: start, end: end, key: key, cold: cold}
}

// take returns a copy of the spans recorded since the last take.
func (r *recorder) take() []span {
	n := min(r.n.Swap(0), int64(len(r.spans)))
	return append([]span(nil), r.spans[:n]...)
}

// selfTimes returns, for every span of one request tree, its self time
// — its duration minus the union of its children's intervals, each
// clipped to it — and the overlap among its children: the sum of their
// clipped durations minus that union. Children running concurrently on
// pool workers overlap each other; the overlap is what keeps
//
//	root duration = Σ self − Σ overlap
//
// exact when every span lies inside its parent. Time a span spends
// outside its parent shows as the excess of the right-hand side.
func selfTimes(spans []span) (self, overlap []int64) {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self = make([]int64, len(spans))
	overlap = make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		iv = iv[:0]
		var sum int64
		for _, c := range children[i] {
			cs := spans[c]
			lo, hi := max(cs.start, s.start), min(cs.end, s.end)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
				sum += hi - lo
			}
		}
		u := unionLen(iv)
		self[i] = s.dur() - u
		overlap[i] = sum - u
	}
	return self, overlap
}

// unionLen is the total length covered by the intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		if !open || x[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = x[0], x[1], true
			continue
		}
		curHi = max(curHi, x[1])
	}
	if open {
		total += curHi - curLo
	}
	return total
}
