package main

import (
	"fmt"
	"reflect"
	"testing"

	"urllangid/internal/langid"
	"urllangid/internal/urlx"
)

func testPool(n int) []entry {
	pool := make([]entry, n)
	for i := range pool {
		u := fmt.Sprintf("http://www.seite%d.de/artikel/%d", i%37, i)
		pool[i] = entry{url: u, quoted: quote(u), lang: langid.Language(i % langid.NumLanguages)}
	}
	return pool
}

func batches(poolLen int, seed uint64, n int) [][]int {
	s := newBatchSeq(poolLen, seed, streamMain)
	out := make([][]int, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func segments(pool []entry, seed uint64, n int) [][]line {
	s := newSegSeq(len(pool), seed, streamMain)
	out := make([][]line, n)
	for i := range out {
		out[i] = s.segment(pool)
	}
	return out
}

func TestSequencesFollowSeed(t *testing.T) {
	pool := testPool(1000)
	if a, b := batches(len(pool), 7, 40), batches(len(pool), 7, 40); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different batch sequences")
	}
	if a, b := batches(len(pool), 7, 40), batches(len(pool), 8, 40); reflect.DeepEqual(a, b) {
		t.Fatal("different seeds gave the same batch sequence")
	}
	if a, b := segments(pool, 7, 3), segments(pool, 7, 3); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different stream segments")
	}
	if a, b := segments(pool, 7, 3), segments(pool, 8, 3); reflect.DeepEqual(a, b) {
		t.Fatal("different seeds gave the same stream segments")
	}
}

func TestBatchesHoldDistinctURLs(t *testing.T) {
	for _, b := range batches(1000, 3, 100) {
		seen := map[int]bool{}
		for _, i := range b {
			if seen[i] {
				t.Fatalf("batch repeats pool index %d", i)
			}
			seen[i] = true
		}
	}
}

func TestSegmentsRepeatAboutHalf(t *testing.T) {
	pool := testPool(5000)
	seen := map[string]bool{}
	fresh, total := 0, 0
	for _, seg := range segments(pool, 5, 4) {
		for _, l := range seg {
			total++
			if k := urlx.Normalize(l.text); !seen[k] {
				seen[k] = true
				fresh++
			}
		}
	}
	if share := float64(fresh) / float64(total); share < 0.45 || share > 0.55 {
		t.Fatalf("share of lines new to a cache: %.3f, want about half", share)
	}
}

func TestVariantsShareNormalForm(t *testing.T) {
	u := "http://www.Seite.de/Artikel/1"
	if got := schemeVariant(u); got != "https://www.Seite.de/Artikel/1" {
		t.Fatalf("schemeVariant = %q", got)
	}
	if got := caseVariant(u); got != "HTTP://WWW.SEITE.DE/Artikel/1" {
		t.Fatalf("caseVariant = %q", got)
	}
}
