package flat

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildContainer writes a small well-formed container with one section
// per payload in order: meta (whole-model), weights, and a per-language
// dict.
func buildContainer(t testing.TB) []byte {
	t.Helper()
	w := NewWriter('S')
	w.Add(SecMeta, -1, []byte(`{"label":"test"}`))
	w.Add(SecWeights, -1, Float64Bytes([]float64{1.5, -2.25, 0, math.Inf(1), 42}))
	w.Add(SecDict, 2, StringsBytes([]string{"bonjour", "salut", ""}))
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// restampDir recomputes the header's directory digest after a test has
// mutated directory bytes, so the mutation reaches the structural
// checks behind the digest gate.
func restampDir(data []byte) {
	count := binary.LittleEndian.Uint32(data[24:28])
	end := HeaderSize + uint64(count)*EntrySize
	if end > uint64(len(data)) {
		return
	}
	sum := sha256.Sum256(data[HeaderSize:end])
	copy(data[32:64], sum[:])
}

func TestRoundTrip(t *testing.T) {
	data := buildContainer(t)
	if !IsFlat(data) {
		t.Fatal("IsFlat rejects a written container")
	}
	f, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind() != 'S' {
		t.Errorf("kind = %q", f.Kind())
	}
	if len(f.Sections()) != 3 {
		t.Fatalf("sections = %d", len(f.Sections()))
	}
	if got := f.PayloadBytes(); got != 16+40+int64(len(StringsBytes([]string{"bonjour", "salut", ""}))) {
		t.Errorf("payload bytes = %d", got)
	}

	meta, ok := f.Payload(SecMeta, -1)
	if !ok || string(meta) != `{"label":"test"}` {
		t.Errorf("meta payload = %q ok=%v", meta, ok)
	}
	wb, ok := f.Payload(SecWeights, -1)
	if !ok {
		t.Fatal("no weights payload")
	}
	weights, err := Float64s(wb)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.5, -2.25, 0, math.Inf(1), 42}
	for i, v := range want {
		if weights[i] != v {
			t.Errorf("weights[%d] = %v, want %v", i, weights[i], v)
		}
	}
	db, ok := f.Payload(SecDict, 2)
	if !ok {
		t.Fatal("no dict payload")
	}
	dict, err := Strings(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(dict) != 3 || dict[0] != "bonjour" || dict[2] != "" {
		t.Errorf("dict = %q", dict)
	}
	if _, ok := f.Payload(SecDict, 3); ok {
		t.Error("found a dict section for a language that has none")
	}

	// Same sections written again produce the same bytes and digest.
	again := buildContainer(t)
	if !bytes.Equal(data, again) {
		t.Error("writer output is not deterministic")
	}
	f2, _ := Parse(again)
	if f.ModelDigest() != f2.ModelDigest() {
		t.Error("model digests differ across identical writes")
	}
}

func TestReadIndexMatchesParse(t *testing.T) {
	data := buildContainer(t)
	f, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	kind, digest, secs, err := ReadIndex(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if kind != f.Kind() || len(secs) != len(f.Sections()) {
		t.Fatalf("ReadIndex kind=%q secs=%d", kind, len(secs))
	}
	for i, s := range secs {
		if s != f.Sections()[i] {
			t.Errorf("section %d: %+v vs %+v", i, s, f.Sections()[i])
		}
	}
	var want [32]byte
	copy(want[:], data[32:64])
	if digest != want {
		t.Error("ReadIndex digest differs from the header")
	}
}

// TestParseRejections drives every eager directory check with a
// targeted corruption. Mutations inside the directory are re-stamped so
// they reach the structural check, not just the digest gate.
func TestParseRejections(t *testing.T) {
	base := buildContainer(t)
	entry := func(data []byte, i int) []byte {
		return data[HeaderSize+i*EntrySize:]
	}
	cases := []struct {
		name string
		mut  func(data []byte) []byte
		want string
	}{
		{"empty", func(d []byte) []byte { return nil }, "shorter than"},
		{"short-header", func(d []byte) []byte { return d[:HeaderSize-1] }, "shorter than"},
		{"bad-magic", func(d []byte) []byte { d[0] ^= 0xff; return d }, "magic"},
		{"bad-version", func(d []byte) []byte { d[8] = 9; return d }, "version"},
		{"bad-dir-offset", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[16:24], 128)
			return d
		}, "directory offset"},
		{"huge-count", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[24:28], maxSections+1)
			return d
		}, "corrupt file"},
		{"count-past-eof", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[24:28], 1000)
			return d
		}, "truncated in section directory"},
		{"dir-digest", func(d []byte) []byte { d[HeaderSize] ^= 0xff; return d }, "SHA-256 mismatch"},
		{"zero-type", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(entry(d, 0)[0:4], 0)
			restampDir(d)
			return d
		}, "type 0"},
		{"bad-lang", func(d []byte) []byte {
			neg := int32(-7)
			binary.LittleEndian.PutUint32(entry(d, 0)[4:8], uint32(neg))
			restampDir(d)
			return d
		}, "language index"},
		{"misaligned", func(d []byte) []byte {
			e := entry(d, 1)
			off := binary.LittleEndian.Uint64(e[8:16])
			binary.LittleEndian.PutUint64(e[8:16], off+8)
			restampDir(d)
			return d
		}, "aligned"},
		{"into-directory", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(entry(d, 0)[8:16], 0)
			restampDir(d)
			return d
		}, "overlaps the directory"},
		{"past-eof", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(entry(d, 2)[16:24], 1<<40)
			restampDir(d)
			return d
		}, "beyond"},
		{"overflow-off", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(entry(d, 2)[8:16], (1<<64)-Align)
			restampDir(d)
			return d
		}, "beyond"},
		{"duplicate", func(d []byte) []byte {
			e0, e1 := entry(d, 0), entry(d, 1)
			copy(e1[0:8], e0[0:8])
			restampDir(d)
			return d
		}, "duplicate"},
		{"overlap", func(d []byte) []byte {
			// Point the weights section at the meta section's offset (with
			// distinct type+lang it passes the duplicate check).
			e0, e1 := entry(d, 0), entry(d, 1)
			copy(e1[8:16], e0[8:16])
			restampDir(d)
			return d
		}, "overlap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := append([]byte(nil), base...)
			data = tc.mut(data)
			_, err := Parse(data)
			if err == nil {
				t.Fatalf("Parse accepted %s corruption", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestParseRejectsCorruptPayload pins the verification contract: Parse
// checks every payload against its directory digest, so a flipped
// payload byte fails the parse with an error naming the section.
func TestParseRejectsCorruptPayload(t *testing.T) {
	data := buildContainer(t)
	data[len(data)-1] ^= 0xff // last byte of the last payload
	_, err := Parse(data)
	if err == nil || !strings.Contains(err.Error(), "section dict (lang 2) corrupted") {
		t.Fatalf("Parse of a corrupt payload = %v, want an error naming the dict section", err)
	}
}

func TestMapPath(t *testing.T) {
	data := buildContainer(t)
	path := filepath.Join(t.TempDir(), "m.flat")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := MapPath(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Bytes(), data) {
		t.Error("mapped bytes differ from the file")
	}
	if _, err := Parse(m.Bytes()); err != nil {
		t.Fatal(err)
	}
	m.Retain()
	if err := m.Release(); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(); err != nil { // last reference: unmaps
		t.Fatal(err)
	}

	if _, err := MapPath(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("MapPath opened a missing file")
	}

	// Zero-length files cannot be mapped; the read fallback hands Parse
	// empty bytes and Parse reports them, rather than MapPath failing.
	empty := filepath.Join(t.TempDir(), "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	me, err := MapPath(empty)
	if err != nil {
		t.Fatalf("MapPath(empty) = %v, want read fallback", err)
	}
	if me.Mapped() {
		t.Error("zero-length file claims to be mapped")
	}
	if _, err := Parse(me.Bytes()); err == nil {
		t.Error("Parse accepted an empty file")
	}
	me.Release()
}

func TestViews(t *testing.T) {
	u32 := []uint32{0, 1, 0xffffffff, 7}
	got32, err := Uint32s(Uint32Bytes(u32))
	if err != nil {
		t.Fatal(err)
	}
	for i := range u32 {
		if got32[i] != u32[i] {
			t.Errorf("uint32[%d] = %d", i, got32[i])
		}
	}
	i32 := []int32{-1, 0, math.MaxInt32, math.MinInt32}
	goti32, err := Int32s(Int32Bytes(i32))
	if err != nil {
		t.Fatal(err)
	}
	for i := range i32 {
		if goti32[i] != i32[i] {
			t.Errorf("int32[%d] = %d", i, goti32[i])
		}
	}
	f32 := []float32{1.5, -0.25, float32(math.Inf(-1))}
	gotf32, err := Float32s(Float32Bytes(f32))
	if err != nil {
		t.Fatal(err)
	}
	for i := range f32 {
		if gotf32[i] != f32[i] {
			t.Errorf("float32[%d] = %v", i, gotf32[i])
		}
	}
	if _, err := Float64s(make([]byte, 12)); err == nil {
		t.Error("Float64s accepted a 12-byte payload")
	}
	if _, err := Uint32s(make([]byte, 6)); err == nil {
		t.Error("Uint32s accepted a 6-byte payload")
	}
	if v, err := Float64s(nil); err != nil || v != nil {
		t.Errorf("Float64s(nil) = %v, %v", v, err)
	}
	if b := Float64Bytes(nil); b != nil {
		t.Errorf("Float64Bytes(nil) = %v", b)
	}
}

func TestStringsCodec(t *testing.T) {
	cases := [][]string{nil, {}, {""}, {"a"}, {"hello", "", "wörld", strings.Repeat("x", 1000)}}
	for _, ss := range cases {
		got, err := Strings(StringsBytes(ss))
		if err != nil {
			t.Fatalf("%q: %v", ss, err)
		}
		if len(got) != len(ss) {
			t.Fatalf("%q: got %q", ss, got)
		}
		for i := range ss {
			if got[i] != ss[i] {
				t.Errorf("entry %d = %q, want %q", i, got[i], ss[i])
			}
		}
	}
	bad := [][]byte{
		{},
		{1, 0, 0},
		func() []byte { // count claims more entries than bytes allow
			b := make([]byte, 4)
			binary.LittleEndian.PutUint32(b, 1<<30)
			return b
		}(),
		func() []byte { // entry length past the end
			b := StringsBytes([]string{"abc"})
			binary.LittleEndian.PutUint32(b[4:], 1<<20)
			return b
		}(),
		append(StringsBytes([]string{"abc"}), 0), // trailing bytes
	}
	for i, b := range bad {
		if _, err := Strings(b); err == nil {
			t.Errorf("bad payload %d accepted", i)
		}
	}
}
