package main

import "testing"

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Root [0,100) with children [10,40) and [30,60): union 50, sum 60.
	spans := []span{
		{parent: -1, start: 0, end: 100},
		{parent: 0, start: 10, end: 40},
		{parent: 0, start: 30, end: 60},
	}
	self, overlap := selfTimes(spans)
	if self[0] != 50 || overlap[0] != 10 {
		t.Fatalf("root self %d overlap %d, want 50 and 10", self[0], overlap[0])
	}
	if self[1] != 30 || self[2] != 30 {
		t.Fatalf("leaf self %d %d, want 30 30", self[1], self[2])
	}
	checkIdentity(t, spans, self, overlap)
}

func TestSelfTimeConcurrentPoolWorkers(t *testing.T) {
	// An engine batch [0,100) whose URLs run on the caller and a pool
	// worker at once; each URL has a nested tier call.
	spans := []span{
		{parent: -1, start: 0, end: 120},  // 0 http
		{parent: 0, start: 5, end: 100},   // 1 engine
		{parent: 1, start: 10, end: 50},   // 2 cascade, caller goroutine
		{parent: 1, start: 12, end: 60},   // 3 cascade, pool worker
		{parent: 1, start: 55, end: 95},   // 4 cascade, caller goroutine
		{parent: 2, start: 11, end: 40},   // 5 fast tier of 2
		{parent: 3, start: 13, end: 30},   // 6 fast tier of 3
		{parent: 3, start: 31, end: 59},   // 7 slow tier of 3
		{parent: 4, start: 56, end: 90},   // 8 fast tier of 4
		{parent: 0, start: 100, end: 118}, // 9 respond
	}
	self, overlap := selfTimes(spans)
	// Engine children cover [10,95): 85 of its 95.
	if self[1] != 10 {
		t.Fatalf("engine self %d, want 10", self[1])
	}
	if overlap[1] != (40+48+40)-85 {
		t.Fatalf("engine overlap %d, want %d", overlap[1], (40+48+40)-85)
	}
	if self[3] != 48-17-28 {
		t.Fatalf("cascade self %d, want %d", self[3], 48-17-28)
	}
	if self[0] != 120-95-18 {
		t.Fatalf("http self %d, want %d", self[0], 120-95-18)
	}
	checkIdentity(t, spans, self, overlap)
}

func TestSelfTimeClipsEscapingChild(t *testing.T) {
	spans := []span{
		{parent: -1, start: 0, end: 10},
		{parent: 0, start: 5, end: 15},
	}
	self, overlap := selfTimes(spans)
	if self[0] != 5 || overlap[0] != 0 {
		t.Fatalf("root self %d overlap %d, want 5 and 0", self[0], overlap[0])
	}
	// The child sticks out by 5, which the identity exposes.
	var s, o int64
	for i := range spans {
		s += self[i]
		o += overlap[i]
	}
	if got := s - o; got != 15 {
		t.Fatalf("Σself−Σoverlap = %d, want 15 (root 10 + 5 outside)", got)
	}
}

func checkIdentity(t *testing.T, spans []span, self, overlap []int64) {
	t.Helper()
	var s, o int64
	for i := range spans {
		s += self[i]
		o += overlap[i]
	}
	if root := spans[0].dur(); s-o != root {
		t.Fatalf("Σself−Σoverlap = %d, root %d", s-o, root)
	}
}
