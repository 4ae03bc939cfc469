package flat

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"testing"
)

// FuzzFlatSections throws arbitrary bytes at the v3 container parser
// and asserts the safety contract: Parse either rejects the input or
// returns a File whose every payload lies inside the input and matches
// its directory digest — no panics, no out-of-bounds slicing, for bad
// offsets, overlapping sections, oversize lengths and flipped payload
// bits alike.
//
// The header digest gate would otherwise shadow the structural checks
// (almost every mutation dies at "directory SHA-256 mismatch"), so each
// input is exercised twice: raw, and with the directory digest
// re-stamped so the mutated directory reaches the offset/overlap/bounds
// validation the digest normally fronts.
func FuzzFlatSections(f *testing.F) {
	valid := func() []byte {
		w := NewWriter('S')
		w.Add(SecMeta, -1, []byte(`{"label":"fuzz"}`))
		w.Add(SecWeights, -1, Float64Bytes([]float64{1, -2, 3}))
		w.Add(SecDict, 0, StringsBytes([]string{"hello", "world"}))
		var buf bytes.Buffer
		if _, err := w.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}()
	f.Add(valid)
	f.Add(valid[:HeaderSize])
	f.Add(valid[:len(valid)-1])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 256))
	// Seeds targeting specific directory fields (offset, length, lang).
	for _, off := range []int{HeaderSize + 8, HeaderSize + 16, HeaderSize + 4, 16, 24} {
		mut := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint64(mut[off:], 1<<62)
		f.Add(mut)
	}
	// One flipped bit inside the first and the last payload.
	for _, off := range []int{len(valid) - 1, int(alignUp(HeaderSize + 3*EntrySize))} {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0x01
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		check(t, data)

		// Re-stamp the directory digest when the header frames one, so
		// structural validation past the digest gate is reached.
		if len(data) >= HeaderSize {
			count := binary.LittleEndian.Uint32(data[24:28])
			end := uint64(HeaderSize) + uint64(count)*EntrySize
			if count <= maxSections && end <= uint64(len(data)) {
				patched := append([]byte(nil), data...)
				sum := sha256.Sum256(patched[HeaderSize:end])
				copy(patched[32:64], sum[:])
				check(t, patched)
			}
		}
	})
}

// check parses one candidate and, on success, walks everything the
// parser claims is safe: section payloads, their digests, and the
// typed-view decoders over each payload.
func check(t *testing.T, data []byte) {
	f, err := Parse(data)
	if err != nil {
		return
	}
	f.Kind()
	f.ModelDigest()
	f.PayloadBytes()
	for _, s := range f.Sections() {
		p, ok := f.Payload(s.Type, s.Lang)
		if !ok {
			t.Fatalf("listed section (%d,%d) has no payload", s.Type, s.Lang)
		}
		if uint64(len(p)) != s.Len {
			t.Fatalf("payload length %d != directory length %d", len(p), s.Len)
		}
		if sha256.Sum256(p) != s.Digest {
			t.Fatalf("Parse accepted section (%d,%d) whose payload does not match its digest", s.Type, s.Lang)
		}
		// Typed decoders must reject or decode cleanly, never fault.
		Float64s(p)
		Float32s(p)
		Uint32s(p)
		Int32s(p)
		Strings(p)
		SectionName(s.Type)
	}
	if !IsFlat(data) {
		t.Fatal("Parse accepted bytes IsFlat rejects")
	}
	if _, _, _, err := ReadIndex(bytes.NewReader(data)); err != nil {
		t.Fatalf("ReadIndex rejects bytes Parse accepted: %v", err)
	}
}
