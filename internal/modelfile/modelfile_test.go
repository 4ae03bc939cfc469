package modelfile

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"urllangid/internal/compiled"
	"urllangid/internal/core"
	"urllangid/internal/datagen"
	"urllangid/internal/features"
)

var (
	sysOnce sync.Once
	testSys *core.System
)

func system(t *testing.T) *core.System {
	t.Helper()
	sysOnce.Do(func() {
		ds := datagen.Generate(datagen.Config{
			Kind: datagen.ODP, Seed: 71, TrainPerLang: 300, TestPerLang: 1,
		})
		sys, err := core.Train(core.Config{Algo: core.NaiveBayes, Features: features.Words, Seed: 71}, ds.Train)
		if err != nil {
			panic(err)
		}
		testSys = sys
	})
	return testSys
}

func TestHeaderedClassifierRoundTrip(t *testing.T) {
	sys := system(t)
	var buf bytes.Buffer
	if err := WriteClassifier(&buf, sys); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[0]; got != 0x89 {
		t.Fatalf("header starts with 0x%02x, want 0x89", got)
	}
	loadedSys, loadedSnap, meta, err := ReadBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if loadedSnap != nil || loadedSys == nil {
		t.Fatalf("classifier file read as (sys=%v snap=%v)", loadedSys != nil, loadedSnap != nil)
	}
	if meta == nil {
		t.Fatal("current-format classifier file carries no metadata")
	}
	if meta.Label != "NB/word" || meta.Mode != "" {
		t.Errorf("classifier meta = %+v, want label NB/word and no mode", meta)
	}
	if len(meta.Digest) != 64 || meta.PayloadBytes <= 0 {
		t.Errorf("classifier meta digest/size = %q/%d", meta.Digest, meta.PayloadBytes)
	}
	u := "http://www.wetter-bericht.de/heute"
	if loadedSys.Scores(u) != sys.Scores(u) {
		t.Error("round-tripped classifier scores differ")
	}
}

func TestHeaderedSnapshotRoundTrip(t *testing.T) {
	snap := compiled.FromSystem(system(t))
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	loadedSys, loadedSnap, meta, err := ReadBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if loadedSys != nil || loadedSnap == nil {
		t.Fatalf("snapshot file read as (sys=%v snap=%v)", loadedSys != nil, loadedSnap != nil)
	}
	if meta == nil || meta.Label != "NB/word" || meta.Mode != "linear" {
		t.Fatalf("snapshot meta = %+v, want NB/word in linear mode", meta)
	}
	u := "http://www.wetter-bericht.de/heute"
	if loadedSnap.Scores(u) != snap.Scores(u) {
		t.Error("round-tripped snapshot scores differ")
	}
}

// TestInspect pins the cheap no-decode path: InspectFile reports the
// same kind, metadata and digest ReadBytes does, from the header and
// metadata alone.
func TestInspect(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, save func(*bytes.Buffer) error) (string, []byte) {
		t.Helper()
		var buf bytes.Buffer
		if err := save(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path, buf.Bytes()
	}

	clfPath, clfData := write("clf.model", func(b *bytes.Buffer) error { return WriteClassifier(b, system(t)) })
	info, err := InspectFile(clfPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != versionMeta || info.Kind != KindClassifier || info.Meta.Label != "NB/word" || info.Sections != nil {
		t.Errorf("InspectFile(classifier) = %+v meta %+v", info, info.Meta)
	}
	// The stored digest is the digest of exactly the payload bytes.
	payload := clfData[len(clfData)-int(info.Meta.PayloadBytes):]
	if DigestBytes(payload) != info.Meta.Digest {
		t.Error("stored digest does not cover the payload bytes")
	}

	// The v3 flat container inspects too: same kind and metadata, and
	// the digest it reports is the one ReadBytes verifies (the directory
	// hash, recoverable from the header alone).
	snapPath, snapData := write("snap.model", func(b *bytes.Buffer) error {
		return WriteSnapshot(b, compiled.FromSystem(system(t)))
	})
	info3, err := InspectFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if info3.Version != versionFlat || info3.Kind != KindSnapshot || info3.Meta.Mode != "linear" || len(info3.Sections) == 0 {
		t.Errorf("InspectFile(v3) = %+v meta %+v", info3, info3.Meta)
	}
	_, dirDigest, _, err := ReadIndexFlat(bytes.NewReader(snapData))
	if err != nil {
		t.Fatal(err)
	}
	_, _, meta3, err := ReadBytes(snapData)
	if err != nil {
		t.Fatal(err)
	}
	if info3.Meta.Digest != dirDigest || meta3.Digest != dirDigest {
		t.Errorf("v3 digests: InspectFile %s, ReadBytes %s, directory %s", info3.Meta.Digest, meta3.Digest, dirDigest)
	}
}

// TestDeterministicDigest: saving the same model twice must produce the
// same digest, or the registry's skip-unchanged reload check would
// always see a change.
func TestDeterministicDigest(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteClassifier(&a, system(t)); err != nil {
		t.Fatal(err)
	}
	if err := WriteClassifier(&b, system(t)); err != nil {
		t.Fatal(err)
	}
	_, _, ma, err := ReadBytes(a.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	_, _, mb, err := ReadBytes(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if ma.Digest != mb.Digest {
		t.Errorf("digests differ across identical saves: %s vs %s", ma.Digest, mb.Digest)
	}
}

// retiredFormats builds one input per format this build no longer
// reads, each from header bytes plus filler: rejection must happen
// from the header alone. The headerless input is a gob stream, as the
// pre-header Save paths wrote.
func retiredFormats(t *testing.T) map[string][]byte {
	t.Helper()
	filler := bytes.Repeat([]byte{0x42}, 128)
	header := func(ver, kind byte) []byte {
		return append(append(append([]byte(nil), magic[:]...), ver, kind), filler...)
	}
	var headerless bytes.Buffer
	if err := system(t).Save(&headerless); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"version-1 trained classifier":    header(versionRetired, KindClassifier),
		"version-1 compiled snapshot":     header(versionRetired, KindSnapshot),
		"headerless":                      headerless.Bytes(),
		"version-2 gob compiled snapshot": header(versionMeta, KindSnapshot),
	}
}

// TestReadBytesRejectsRetiredFormats: ReadBytes and InspectFile reject
// each retired format with an error naming it and the command that
// writes a current file, never a gob decode error.
func TestReadBytesRejectsRetiredFormats(t *testing.T) {
	dir := t.TempDir()
	for format, data := range retiredFormats(t) {
		t.Run(format, func(t *testing.T) {
			path := filepath.Join(dir, strings.ReplaceAll(format, " ", "-"))
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			sys, snap, _, readErr := ReadBytes(data)
			if sys != nil || snap != nil {
				t.Fatalf("ReadBytes returned a model for a %s file", format)
			}
			_, inspectErr := InspectFile(path)
			for name, err := range map[string]error{"ReadBytes": readErr, "InspectFile": inspectErr} {
				if err == nil {
					t.Fatalf("%s accepted a %s file", name, format)
				}
				for _, want := range []string{format, "retired format", "re-run `urllangid "} {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("%s(%s) error %q does not mention %q", name, format, err, want)
					}
				}
				if strings.Contains(err.Error(), "gob:") {
					t.Errorf("%s(%s) error leaks a gob error: %q", name, format, err)
				}
			}
		})
	}
}

// TestReadRejectsEmptyAndTruncated is the satellite's table: inputs an
// operator actually produces by accident — empty files, half-copied
// files, text mistaken for a model — must fail with an error that says
// what the input is (and how many bytes it was), never a raw gob/EOF
// decode error.
func TestReadRejectsEmptyAndTruncated(t *testing.T) {
	var full bytes.Buffer
	if err := WriteClassifier(&full, system(t)); err != nil {
		t.Fatal(err)
	}
	fb := full.Bytes()
	corrupt := bytes.Clone(fb)
	corrupt[len(corrupt)-1] ^= 0xff

	cases := []struct {
		name string
		data []byte
		want string // substring the error must contain
		not  string // substring it must not contain
	}{
		{"empty", nil, "not a model file (0 bytes", "EOF"},
		{"one byte", []byte{7}, "not a model file (1 bytes", "gob"},
		{"three bytes", []byte{1, 2, 3}, "not a model file (3 bytes", "gob"},
		{"truncated magic", fb[:5], "not a model file (5 bytes", "EOF"},
		{"header only", fb[:headerLen], "truncated in metadata", ""},
		{"cut in metadata block", fb[:headerLen+9], "truncated in metadata", ""},
		{"cut in payload", fb[:len(fb)*3/4], "payload truncated", "gob"},
		{"trailing garbage", append(bytes.Clone(fb), "oops"...), "beyond its declared", "truncated"},
		{"flipped payload byte", corrupt, "digest mismatch", "gob"},
		{"small text", []byte("hello"), "not a model file (5 bytes", "gob"},
		{"large text", bytes.Repeat([]byte("not a model file at all, just text. "), 4), "unrecognized model data", ""},
		{"large noise", bytes.Repeat([]byte{0xff, 0x00, 0x55}, 50), "unrecognized model data", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := ReadBytes(tc.data)
			if err == nil {
				t.Fatalf("Read accepted %d bytes of %s", len(tc.data), tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
			if tc.not != "" && strings.Contains(err.Error(), tc.not) {
				t.Errorf("error %q leaks %q", err, tc.not)
			}
		})
	}
}

func TestReadRejectsUnknownKindAndVersion(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.WriteByte(versionMeta)
	buf.WriteByte('Z')
	buf.Write(make([]byte, 64)) // a plausible metadata-length frame
	if _, _, _, err := ReadBytes(buf.Bytes()); err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Errorf("unknown kind error = %v", err)
	}

	buf.Reset()
	buf.Write(magic[:])
	buf.WriteByte(versionMeta + 1)
	buf.WriteByte(KindClassifier)
	if _, _, _, err := ReadBytes(buf.Bytes()); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future version error = %v", err)
	}
}

// TestReadRejectsTruncatedV1Payload: a version-1 header followed by a
// cut-off payload must error, naming the declared kind.
func TestReadRejectsTruncatedV1Payload(t *testing.T) {
	var payload bytes.Buffer
	if err := system(t).Save(&payload); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.WriteByte(versionRetired)
	buf.WriteByte(KindClassifier)
	buf.Write(payload.Bytes()[:16])
	if _, _, _, err := ReadBytes(buf.Bytes()); err == nil || !strings.Contains(err.Error(), "trained classifier") {
		t.Errorf("truncated v1 payload error = %v", err)
	}
}

// TestLegacySnapshotNeverMisreadAsClassifier: a headerless gob shaped
// like a pre-header snapshot must be rejected outright. Force-decoding
// it as a classifier would yield an empty System that panics on first
// use.
func TestLegacySnapshotNeverMisreadAsClassifier(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(struct {
		Version, Mode uint8
		Blob          []byte
		Weights       []float64
	}{2, 1, []byte("wetterbericht"), make([]float64, 10)}); err != nil {
		t.Fatal(err)
	}
	sys, snap, _, err := ReadBytes(buf.Bytes())
	if err == nil || sys != nil || snap != nil {
		t.Fatalf("headerless snapshot gob read as sys=%v snap=%v err=%v", sys != nil, snap != nil, err)
	}
}

func TestKindName(t *testing.T) {
	if KindName(KindClassifier) != "trained classifier" || KindName(KindSnapshot) != "compiled snapshot" {
		t.Error("kind names changed")
	}
	if !strings.Contains(KindName(0x7f), "0x7f") {
		t.Error("unknown kind name lacks the byte value")
	}
}
