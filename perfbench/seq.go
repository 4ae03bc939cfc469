package main

import (
	"math/rand/v2"
	"strconv"
	"strings"
)

// Request sequences. Every sequence is a pure function of the workload
// seed and a stream number, so the same seed replays the same requests
// — in the end-to-end run and in the traced replay alike.

// Streams separate the sequences of one run.
const (
	streamWarm uint64 = iota + 1
	streamMain
	streamLo
	streamHi
	streamReplay
)

// batchURLs is the size of one classify request or library call.
const batchURLs = 64

// batchSeq yields batches of batchURLs distinct pool indices: the pool
// in a seeded random order, reshuffled on every pass.
type batchSeq struct {
	rng  *rand.Rand
	perm []int
	pos  int
}

func newBatchSeq(poolLen int, seed, stream uint64) *batchSeq {
	s := &batchSeq{rng: rand.New(rand.NewPCG(seed, stream)), perm: make([]int, poolLen)}
	for i := range s.perm {
		s.perm[i] = i
	}
	s.pos = poolLen // shuffle on first use
	return s
}

// next returns the next batch. A pass's tail shorter than a batch is
// dropped so no batch repeats a URL.
func (s *batchSeq) next() []int {
	if s.pos+batchURLs > len(s.perm) {
		s.rng.Shuffle(len(s.perm), func(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] })
		s.pos = 0
	}
	b := s.perm[s.pos : s.pos+batchURLs : s.pos+batchURLs]
	s.pos += batchURLs
	out := make([]int, batchURLs)
	copy(out, b)
	return out
}

// Stream segments model a crawl frontier: about half the lines repeat a
// recent line, exactly or as a scheme or case variant that the URL
// normal form folds back onto it; the rest are URLs the server has not
// seen, so the result cache both hits and fills.
const (
	segmentLines = 2048
	repeatShare  = 0.5
	recentLines  = 4096
)

// line is one frontier line: the URL text sent, the pool entry it
// derives from (and so its label), and the NDJSON shape it is sent in.
type line struct {
	text  string
	base  int
	shape uint8 // 0 bare, 1 JSON string, 2 JSON object
}

// segSeq yields stream segments.
type segSeq struct {
	rng    *rand.Rand
	perm   []int
	pos    int
	recent []line
	next   int // ring position in recent
	fresh  uint64
}

func newSegSeq(poolLen int, seed, stream uint64) *segSeq {
	s := &segSeq{rng: rand.New(rand.NewPCG(seed, stream)), perm: make([]int, poolLen)}
	for i := range s.perm {
		s.perm[i] = i
	}
	s.pos = poolLen
	s.fresh = stream << 40 // fresh URLs never collide across streams
	return s
}

// segment returns the next segment of segmentLines lines.
func (s *segSeq) segment(pool []entry) []line {
	out := make([]line, segmentLines)
	for i := range out {
		var l line
		if len(s.recent) > 0 && s.rng.Float64() < repeatShare {
			r := s.recent[s.rng.IntN(len(s.recent))]
			l = line{text: r.text, base: r.base}
			switch s.rng.IntN(4) {
			case 0:
				l.text = schemeVariant(r.text)
			case 1:
				l.text = caseVariant(r.text)
			}
		} else {
			if s.pos == len(s.perm) {
				s.rng.Shuffle(len(s.perm), func(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] })
				s.pos = 0
			}
			base := s.perm[s.pos]
			s.pos++
			s.fresh++
			// A trailing numeric path segment makes the URL new to the
			// cache without adding a token: digits only separate tokens.
			l = line{text: pool[base].url + "/" + strconv.FormatUint(s.fresh, 10), base: base}
			if len(s.recent) < recentLines {
				s.recent = append(s.recent, l)
			} else {
				s.recent[s.next] = l
				s.next = (s.next + 1) % recentLines
			}
		}
		switch r := s.rng.IntN(4); {
		case r == 2:
			l.shape = 1
		case r == 3:
			l.shape = 2
		}
		out[i] = l
	}
	return out
}

// schemeVariant swaps http for https (or back); the normal form strips
// the scheme.
func schemeVariant(u string) string {
	if rest, ok := strings.CutPrefix(u, "http://"); ok {
		return "https://" + rest
	}
	if rest, ok := strings.CutPrefix(u, "https://"); ok {
		return "http://" + rest
	}
	return u
}

// caseVariant upper-cases the scheme and host; the normal form
// lower-cases ASCII.
func caseVariant(u string) string {
	end := len(u)
	start := strings.Index(u, "://")
	if start >= 0 {
		if i := strings.IndexByte(u[start+3:], '/'); i >= 0 {
			end = start + 3 + i
		}
	}
	return strings.ToUpper(u[:end]) + u[end:]
}
