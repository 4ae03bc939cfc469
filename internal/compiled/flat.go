package compiled

// The flat (container v3) wire format, the only snapshot format: the
// snapshot's serving arrays persisted as typed, alignment-safe
// little-endian sections that load as views over the file bytes. The
// section codec, alignment rules and digest scheme live in
// internal/modelfile/flat; this file maps the Snapshot onto that
// vocabulary — which arrays go in which sections, and which invariants
// must hold before scoring may trust them.
//
// LoadFlat trusts the container's payloads — flat.Parse has already
// checked every section digest — and checks what the digests cannot:
// the structural invariants the scoring paths index by (string-table
// probe reachability, tree preorder termination, kNN CSR bounds and
// norms, TLD tables matching the built-in dictionaries). A snapshot it
// returns scores without further checks; corruption is an error from
// the open, never a panic from a score.
//
// The arrays a flat snapshot scores from are bit-identical to the ones
// FromSystem compiles — same float64 values, same storage order, same
// norms — so a v3 file classifies exactly as its source system does
// (equivalence_test.go proves it over the full configuration matrix).

import (
	"encoding/json"
	"fmt"
	"io"

	"urllangid/internal/calib"
	"urllangid/internal/core"
	"urllangid/internal/dict"
	"urllangid/internal/features"
	"urllangid/internal/langid"
	"urllangid/internal/modelfile/flat"
	"urllangid/internal/strtab"
	"urllangid/internal/textstat"
)

// flatMeta is the SecMeta JSON payload: everything about the model that
// is not a bulk array. Stored as JSON so foreign tooling (and the
// inspect subcommand) can read a v3 file's identity without this
// package's type definitions.
type flatMeta struct {
	Label  string      `json:"label"`
	Mode   string      `json:"mode"`
	ModeID uint8       `json:"mode_id"`
	Config core.Config `json:"config"`
	Kind   uint8       `json:"feature_kind"`
	Raw    bool        `json:"raw,omitempty"`
	Dim    uint32      `json:"dim"`
	// HasDict marks custom snapshots carrying trained-dictionary
	// sections.
	HasDict bool `json:"has_dict,omitempty"`
	// KnnK is the per-language neighbour count for kNN snapshots.
	KnnK []int32 `json:"knn_k,omitempty"`
}

// WriteFlat serialises the snapshot as a v3 flat container.
func (s *Snapshot) WriteFlat(w io.Writer) error {
	meta := flatMeta{
		Label:  s.Describe(),
		Mode:   s.Mode(),
		ModeID: uint8(s.mode),
		Config: s.cfg,
		Kind:   uint8(s.kind),
		Raw:    s.raw,
		Dim:    s.dim,
	}
	if s.isCustom() && s.custom.TrainedDict() != nil {
		meta.HasDict = true
	}
	if s.mode == modeKNN {
		meta.KnnK = make([]int32, langid.NumLanguages)
		for li := range s.refs {
			meta.KnnK[li] = s.refs[li].k
		}
	}
	mb, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("compiled: encoding flat metadata: %w", err)
	}

	fw := flat.NewWriter('S')
	fw.Add(flat.SecMeta, -1, mb)
	if s.calib != nil {
		fw.Add(flat.SecCalib, -1, s.calib.Encode())
	}
	if s.mode != modeTLD && !s.isCustom() {
		fw.Add(flat.SecStrBlob, -1, s.table.Blob())
		fw.Add(flat.SecStrOffs, -1, flat.Uint32Bytes(s.table.Offsets()))
		fw.Add(flat.SecStrSlots, -1, flat.Uint32Bytes(s.table.Slots()))
	}
	if meta.HasDict {
		td := s.custom.TrainedDict()
		for li := 0; li < langid.NumLanguages; li++ {
			fw.Add(flat.SecDict, int32(li), flat.StringsBytes(td.Tokens(langid.Language(li))))
		}
	}
	switch s.mode {
	case modeCount, modeCountPost, modeNormalized:
		fw.Add(flat.SecWeights, -1, flat.Float64Bytes(s.weights))
		prepost := make([]float64, 2*langid.NumLanguages)
		copy(prepost, s.pre[:])
		copy(prepost[langid.NumLanguages:], s.post[:])
		fw.Add(flat.SecPrePost, -1, flat.Float64Bytes(prepost))
	case modeDTree:
		for li := range s.trees {
			t := &s.trees[li]
			fw.Add(flat.SecTreeFeat, int32(li), flat.Int32Bytes(t.feat))
			fw.Add(flat.SecTreeThr, int32(li), flat.Float64Bytes(t.thr))
			fw.Add(flat.SecTreeKids, int32(li), flat.Int32Bytes(t.kids))
		}
	case modeKNN:
		for li := range s.refs {
			r := &s.refs[li]
			fw.Add(flat.SecKnnRows, int32(li), flat.Uint32Bytes(r.rows))
			fw.Add(flat.SecKnnIdx, int32(li), flat.Uint32Bytes(r.idx))
			fw.Add(flat.SecKnnVal, int32(li), flat.Float32Bytes(r.val))
			fw.Add(flat.SecKnnPos, int32(li), r.pos)
			fw.Add(flat.SecKnnNorm, int32(li), flat.Float64Bytes(r.norm))
		}
	case modeTLD:
		for li := 0; li < langid.NumLanguages; li++ {
			fw.Add(flat.SecTLD, int32(li), flat.StringsBytes(dict.CcTLDs(langid.Language(li))))
		}
	}
	if _, err := fw.WriteTo(w); err != nil {
		return err
	}
	return nil
}

// LoadFlat builds a snapshot over a parsed v3 container. The serving
// arrays are views into f's backing bytes — nothing bulk is copied or
// decoded — and every structural invariant scoring relies on is checked
// before it returns, so a corrupt file fails here with an error.
//
// mapping may be nil when the container bytes live on the heap (Open
// from an io.Reader). When non-nil, the snapshot owns the caller's
// mapping reference on success — Close releases it — while on error the
// caller keeps ownership and must release it.
func LoadFlat(f *flat.File, mapping *flat.Mapping) (*Snapshot, error) {
	if f.Kind() != 'S' {
		return nil, fmt.Errorf("compiled: flat container kind %q is not a snapshot", f.Kind())
	}
	mb, ok := f.Payload(flat.SecMeta, -1)
	if !ok {
		return nil, fmt.Errorf("compiled: flat snapshot has no metadata section")
	}
	var meta flatMeta
	if err := json.Unmarshal(mb, &meta); err != nil {
		return nil, fmt.Errorf("compiled: decoding flat metadata: %w", err)
	}

	s := &Snapshot{cfg: meta.Config, mode: mode(meta.ModeID), kind: features.Kind(meta.Kind), raw: meta.Raw, dim: meta.Dim}
	s.pool.New = func() any { return new(scratch) }
	if s.mode == 0 || s.mode > modeTLD {
		return nil, fmt.Errorf("compiled: unknown flat snapshot mode %d", meta.ModeID)
	}

	// The calibration section is optional — files written before it
	// existed load uncalibrated.
	if cb, ok := f.Payload(flat.SecCalib, -1); ok {
		c, err := calib.Decode(cb)
		if err != nil {
			return nil, fmt.Errorf("compiled: decoding calibration section: %w", err)
		}
		s.calib = c
	}

	if s.mode == modeTLD {
		if s.cfg.Algo.NeedsTraining() {
			return nil, fmt.Errorf("compiled: TLD snapshot claims trainable algorithm %s", s.cfg.Algo)
		}
		if err := checkTLDSections(f); err != nil {
			return nil, err
		}
		s.baseline = baselineFor(s.cfg.Algo)
		s.mapping = mapping
		return s, nil
	}

	// Feature source.
	switch s.kind {
	case features.Words, features.Trigrams:
		blob, err := sectionBytes(f, flat.SecStrBlob, -1)
		if err != nil {
			return nil, err
		}
		offs, err := sectionUint32s(f, flat.SecStrOffs, -1)
		if err != nil {
			return nil, err
		}
		slots, err := sectionUint32s(f, flat.SecStrSlots, -1)
		if err != nil {
			return nil, err
		}
		if len(offs) != int(meta.Dim)+1 {
			return nil, fmt.Errorf("compiled: flat string table has %d offsets, want %d", len(offs), meta.Dim+1)
		}
		table, err := strtab.FromFlat(blob, offs, slots)
		if err != nil {
			return nil, fmt.Errorf("compiled: %w", err)
		}
		s.table = table
	case features.Custom, features.CustomSelected:
		// The trained dictionary cannot be consumed in place — its tokens
		// become map keys in the streaming extractor — so custom snapshots
		// rebuild it on the heap at load.
		var trained *textstat.TrainedDict
		if meta.HasDict {
			var tokens [langid.NumLanguages][]string
			for li := 0; li < langid.NumLanguages; li++ {
				db, ok := f.Payload(flat.SecDict, int32(li))
				if !ok {
					return nil, fmt.Errorf("compiled: flat snapshot is missing its %s dictionary section", langid.Language(li))
				}
				toks, err := flat.Strings(db)
				if err != nil {
					return nil, err
				}
				tokens[li] = toks
			}
			trained = textstat.FromTokens(tokens)
		}
		s.custom = features.RestoreCustom(s.kind == features.CustomSelected, trained)
		if s.custom.Dim() != int(meta.Dim) {
			return nil, fmt.Errorf("compiled: custom snapshot claims %d features, layout has %d", meta.Dim, s.custom.Dim())
		}
	default:
		return nil, fmt.Errorf("compiled: unknown feature kind %d", meta.Kind)
	}

	// Model payload.
	switch s.mode {
	case modeCount, modeCountPost, modeNormalized:
		weights, err := sectionFloat64s(f, flat.SecWeights, -1)
		if err != nil {
			return nil, err
		}
		if len(weights) != int(meta.Dim)*langid.NumLanguages {
			return nil, fmt.Errorf("compiled: weight slice has %d entries, want %d",
				len(weights), int(meta.Dim)*langid.NumLanguages)
		}
		s.weights = weights
		prepost, err := sectionFloat64s(f, flat.SecPrePost, -1)
		if err != nil {
			return nil, err
		}
		if len(prepost) != 2*langid.NumLanguages {
			return nil, fmt.Errorf("compiled: pre/post section has %d entries, want %d", len(prepost), 2*langid.NumLanguages)
		}
		copy(s.pre[:], prepost[:langid.NumLanguages])
		copy(s.post[:], prepost[langid.NumLanguages:])
	case modeDTree:
		for li := range s.trees {
			feat, err := sectionInt32s(f, flat.SecTreeFeat, int32(li))
			if err != nil {
				return nil, err
			}
			thr, err := sectionFloat64s(f, flat.SecTreeThr, int32(li))
			if err != nil {
				return nil, err
			}
			kids, err := sectionInt32s(f, flat.SecTreeKids, int32(li))
			if err != nil {
				return nil, err
			}
			s.trees[li] = flatTree{feat: feat, thr: thr, kids: kids}
			if err := s.trees[li].validate(int(s.dim)); err != nil {
				return nil, err
			}
		}
	case modeKNN:
		if len(meta.KnnK) != langid.NumLanguages {
			return nil, fmt.Errorf("compiled: kNN snapshot metadata carries %d neighbour counts, want %d", len(meta.KnnK), langid.NumLanguages)
		}
		for li := range s.refs {
			rows, err := sectionUint32s(f, flat.SecKnnRows, int32(li))
			if err != nil {
				return nil, err
			}
			idx, err := sectionUint32s(f, flat.SecKnnIdx, int32(li))
			if err != nil {
				return nil, err
			}
			val, err := sectionFloat32s(f, flat.SecKnnVal, int32(li))
			if err != nil {
				return nil, err
			}
			pos, err := sectionBytes(f, flat.SecKnnPos, int32(li))
			if err != nil {
				return nil, err
			}
			norm, err := sectionFloat64s(f, flat.SecKnnNorm, int32(li))
			if err != nil {
				return nil, err
			}
			s.refs[li] = packedRefs{rows: rows, idx: idx, val: val, pos: flat.Uint8s(pos), norm: norm, k: meta.KnnK[li]}
			if err := s.refs[li].validate(); err != nil {
				return nil, err
			}
		}
	}
	s.mapping = mapping
	return s, nil
}

// checkTLDSections checks that a TLD snapshot's persisted tables match
// the built-in dictionaries the baseline classifies from, so the file
// cannot claim a mapping the serving code would not honour.
func checkTLDSections(f *flat.File) error {
	for li := 0; li < langid.NumLanguages; li++ {
		tb, ok := f.Payload(flat.SecTLD, int32(li))
		if !ok {
			return fmt.Errorf("compiled: flat snapshot is missing its %s TLD section", langid.Language(li))
		}
		got, err := flat.Strings(tb)
		if err != nil {
			return err
		}
		want := dict.CcTLDs(langid.Language(li))
		if len(got) != len(want) {
			return fmt.Errorf("compiled: %s TLD section lists %d domains, built-in table has %d", langid.Language(li), len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("compiled: %s TLD section entry %d is %q, built-in table has %q", langid.Language(li), i, got[i], want[i])
			}
		}
	}
	return nil
}

// Close releases a flat-loaded snapshot's backing mapping. It must only
// be called after the last use of the snapshot — views into a released
// mapping are dangling — which in the serving stack means after the
// owning registry version has fully drained. Heap-backed snapshots
// close trivially; Close is idempotent.
func (s *Snapshot) Close() error {
	if s.mapping == nil || s.closed.Swap(true) {
		return nil
	}
	return s.mapping.Release()
}

// Section accessors: resolve a required section and view it with the
// right element type, naming the section in every failure.

func sectionBytes(f *flat.File, typ uint32, lang int32) ([]byte, error) {
	b, ok := f.Payload(typ, lang)
	if !ok {
		return nil, fmt.Errorf("compiled: flat snapshot is missing its %s section", flat.SectionName(typ))
	}
	return b, nil
}

func sectionUint32s(f *flat.File, typ uint32, lang int32) ([]uint32, error) {
	b, err := sectionBytes(f, typ, lang)
	if err != nil {
		return nil, err
	}
	v, err := flat.Uint32s(b)
	if err != nil {
		return nil, fmt.Errorf("compiled: %s section: %w", flat.SectionName(typ), err)
	}
	return v, nil
}

func sectionInt32s(f *flat.File, typ uint32, lang int32) ([]int32, error) {
	b, err := sectionBytes(f, typ, lang)
	if err != nil {
		return nil, err
	}
	v, err := flat.Int32s(b)
	if err != nil {
		return nil, fmt.Errorf("compiled: %s section: %w", flat.SectionName(typ), err)
	}
	return v, nil
}

func sectionFloat32s(f *flat.File, typ uint32, lang int32) ([]float32, error) {
	b, err := sectionBytes(f, typ, lang)
	if err != nil {
		return nil, err
	}
	v, err := flat.Float32s(b)
	if err != nil {
		return nil, fmt.Errorf("compiled: %s section: %w", flat.SectionName(typ), err)
	}
	return v, nil
}

func sectionFloat64s(f *flat.File, typ uint32, lang int32) ([]float64, error) {
	b, err := sectionBytes(f, typ, lang)
	if err != nil {
		return nil, err
	}
	v, err := flat.Float64s(b)
	if err != nil {
		return nil, fmt.Errorf("compiled: %s section: %w", flat.SectionName(typ), err)
	}
	return v, nil
}
