package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"urllangid/internal/calib"
	"urllangid/internal/compiled"
	"urllangid/internal/core"
	"urllangid/internal/datagen"
	"urllangid/internal/features"
	"urllangid/internal/langid"
	"urllangid/internal/modelfile"
)

// corpusSeed fixes the synthetic web every run trains and draws its
// URLs from. The workload seed (--seed) only orders and mixes requests,
// so two seeds measure the same models on different request sequences.
const corpusSeed = 41

// Corpus sizes: ODP at the CLI's default 20 000 training URLs per
// language (a ~6 MB NB/word model, larger than L2), and held-out ODP,
// SER and WC test splits that together give a pool of ~60k URLs.
const (
	odpTrainPerLang = 20000
	odpTestPerLang  = 10000
	serTestPerLang  = 3000
	wcTestPerLang   = 1000
	// calibEvery routes every calibEvery-th ODP test URL to the fast
	// tier's calibration split instead of the pool.
	calibEvery = 5
)

// Files in a run's directory.
const (
	fastFile      = "fast.v3"
	fastUncalFile = "fast-uncal.v3"
	slowFile      = "slow.v3"
	// slotFile is the fast tier's serving file, which reloads replace.
	slotFile = "slot-fast.v3"
	poolFile = "pool.tsv"
)

// entry is one labeled pool URL with its JSON-quoted form, which the
// request builders copy verbatim.
type entry struct {
	url    string
	quoted []byte
	lang   langid.Language
}

// corpus is what set-up hands the workloads: three model files and the
// labeled pool, none of whose URLs was trained on.
type corpus struct {
	fastPath      string // NB/word, calibrated on the calibration split
	fastUncalPath string // the same model without its calibration section
	slowPath      string // NB/trigram
	pool          []entry
}

// buildCorpus generates the corpus, trains and calibrates both tiers
// the way cmd/urllangid-loadgen does, and writes them as v3 files under
// dir.
func buildCorpus(dir string) (*corpus, error) {
	u := datagen.NewUniverse(corpusSeed)
	odp := datagen.GenerateFrom(u, datagen.Config{Kind: datagen.ODP, Seed: corpusSeed,
		TrainPerLang: odpTrainPerLang, TestPerLang: odpTestPerLang})
	// SER and WC contribute test URLs only; one training URL per
	// language keeps the unused SER training split from being generated
	// at its full default size.
	ser := datagen.GenerateFrom(u, datagen.Config{Kind: datagen.SER, Seed: corpusSeed,
		TrainPerLang: 1, TestPerLang: serTestPerLang})
	wc := datagen.GenerateFrom(u, datagen.Config{Kind: datagen.WC, Seed: corpusSeed, TestPerLang: wcTestPerLang})

	trained := make(map[string]bool, len(odp.Train))
	for _, s := range odp.Train {
		trained[s.URL] = true
	}
	var calibSet []langid.Sample
	c := &corpus{}
	seen := make(map[string]bool)
	add := func(s langid.Sample) {
		if trained[s.URL] || seen[s.URL] {
			return
		}
		seen[s.URL] = true
		q, err := json.Marshal(s.URL)
		if err != nil {
			return // invalid UTF-8 cannot round-trip through JSON
		}
		c.pool = append(c.pool, entry{url: s.URL, quoted: q, lang: s.Lang})
	}
	for i, s := range odp.Test {
		if i%calibEvery == 0 {
			calibSet = append(calibSet, s)
			continue
		}
		add(s)
	}
	for _, s := range ser.Test {
		add(s)
	}
	for _, s := range wc.Test {
		add(s)
	}

	fastSys, err := core.Train(core.Config{Algo: core.NaiveBayes, Features: features.Words, Seed: corpusSeed}, odp.Train)
	if err != nil {
		return nil, fmt.Errorf("training fast tier: %w", err)
	}
	fast := compiled.FromSystem(fastSys)
	slowSys, err := core.Train(core.Config{Algo: core.NaiveBayes, Features: features.Trigrams, Seed: corpusSeed}, odp.Train)
	if err != nil {
		return nil, fmt.Errorf("training slow tier: %w", err)
	}
	slow := compiled.FromSystem(slowSys)

	c.fastUncalPath = filepath.Join(dir, fastUncalFile)
	if err := writeSnapshot(c.fastUncalPath, fast); err != nil {
		return nil, err
	}
	cal, _, err := calib.FitEval(fast.Scores, calibSet, 0)
	if err != nil {
		return nil, fmt.Errorf("calibrating fast tier: %w", err)
	}
	fast.SetCalibration(cal)
	c.fastPath = filepath.Join(dir, fastFile)
	if err := writeSnapshot(c.fastPath, fast); err != nil {
		return nil, err
	}
	c.slowPath = filepath.Join(dir, slowFile)
	if err := writeSnapshot(c.slowPath, slow); err != nil {
		return nil, err
	}
	return c, nil
}

func writeSnapshot(path string, snap *compiled.Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := modelfile.WriteSnapshot(f, snap); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// copyFile replaces dst with the contents of src the way a deploy does:
// write a temporary file beside dst, sync it, then rename it over dst,
// so a reader never sees a half-written model and the reload that
// follows does not race the file's writeback.
func copyFile(dst, src string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	tmp := dst + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, dst)
}
