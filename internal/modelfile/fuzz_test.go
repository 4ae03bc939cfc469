package modelfile

import (
	"bytes"
	"testing"

	"urllangid/internal/compiled"
	"urllangid/internal/core"
	"urllangid/internal/datagen"
	"urllangid/internal/features"
)

// fuzzProbeURLs are classified by every snapshot the fuzzer gets
// through ReadBytes.
var fuzzProbeURLs = []string{
	"http://www.wetter-bericht.de/heute",
	"HTTP://Example.FR/%C3%A9t%C3%A9?q=1",
	"",
	"not a url",
}

// FuzzReadBytes fuzzes the one model-file decoder, seeded with a v3
// snapshot, a v2 classifier, their truncations and copies with one
// flipped bit. ReadBytes must return exactly one model or an error and
// never panic, and every snapshot it returns must classify without
// panicking.
func FuzzReadBytes(f *testing.F) {
	ds := datagen.Generate(datagen.Config{Kind: datagen.ODP, Seed: 5, TrainPerLang: 5, TestPerLang: 1})
	nb, err := core.Train(core.Config{Algo: core.NaiveBayes, Features: features.Words, Seed: 5}, ds.Train)
	if err != nil {
		f.Fatal(err)
	}
	tld, err := core.Train(core.Config{Algo: core.CcTLD}, nil)
	if err != nil {
		f.Fatal(err)
	}
	var seeds [][]byte
	for _, sys := range []*core.System{nb, tld} {
		var snap, clf bytes.Buffer
		if err := WriteSnapshot(&snap, compiled.FromSystem(sys)); err != nil {
			f.Fatal(err)
		}
		if err := WriteClassifier(&clf, sys); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, snap.Bytes(), clf.Bytes())
	}
	for _, seed := range seeds {
		f.Add(seed)
		for _, n := range []int{headerLen - 1, headerLen + 4, len(seed) / 2, len(seed) - 1} {
			f.Add(seed[:n])
		}
	}
	for _, seed := range seeds {
		for _, off := range []int{len(seed) / 2, len(seed) - 1} {
			mut := append([]byte(nil), seed...)
			mut[off] ^= 0x01
			f.Add(mut)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sys, snap, meta, err := ReadBytes(data)
		if err != nil {
			if sys != nil || snap != nil || meta != nil {
				t.Fatalf("ReadBytes returned a model alongside error %v", err)
			}
			return
		}
		if (sys == nil) == (snap == nil) || meta == nil {
			t.Fatalf("ReadBytes returned sys=%v snap=%v meta=%v", sys != nil, snap != nil, meta != nil)
		}
		if snap != nil {
			for _, u := range fuzzProbeURLs {
				snap.Classify(u)
			}
		}
	})
}
