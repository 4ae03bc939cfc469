// Package modelfile defines the on-disk containers for urllangid
// models. Every file opens with a fixed magic header carrying a
// container version and a kind byte, so one loader opens both model
// kinds and reports which it found, instead of two entry points failing
// with raw decode errors when handed the other's file. Two containers
// exist:
//
//   - Trained classifiers use container version 2: the header, a small
//     JSON metadata block (the payload's SHA-256 digest, its byte
//     length and the configuration label), then the core.System gob
//     payload. The digest gives the file a stable content identity —
//     the model registry compares it to skip no-op reloads — and makes
//     a truncated or bit-flipped payload fail with a message naming the
//     damage instead of a gob decode error.
//   - Compiled snapshots use container version 3, the flat, mmap-able
//     section layout implemented in the nested flat package: a
//     validated section directory with per-section SHA-256 digests over
//     typed little-endian payloads that serving consumes as views in
//     place. OpenPath maps such a file instead of reading it: open
//     hashes each payload once against its digest but decodes and
//     copies nothing, and the page cache shares one copy of the
//     weights across processes.
//
// Retired formats — headerless gobs from before the header existed,
// version-1 containers and version-2 snapshot containers — are
// rejected from their first bytes with an error that names the format
// and the command that writes a current file.
package modelfile

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"urllangid/internal/compiled"
	"urllangid/internal/core"
	"urllangid/internal/modelfile/flat"
)

// magic opens every model file. Modeled on the PNG signature: the high
// bit in the first byte breaks text-mode transfers, and no gob stream
// can start with it (a gob message starts with its byte count — either
// one byte < 0x80 or a small negated length count 0xff..0xf8 — never
// 0x89).
var magic = [8]byte{0x89, 'U', 'R', 'L', 'I', 'D', '\r', '\n'}

// Container format versions: version 2 (header + metadata block + gob
// payload) holds classifiers, version 3 (the flat section layout)
// holds snapshots — classifiers stay gob, their training-time
// structures gain nothing from mapping. Version 1 (header + payload,
// no metadata) is retired.
const (
	versionRetired byte = 1
	versionMeta    byte = 2
	versionFlat    byte = flat.Version
)

// Model kinds, stored in the header's kind byte.
const (
	KindClassifier byte = 'C' // a trained core.System
	KindSnapshot   byte = 'S' // a compiled serving snapshot
)

// headerLen is magic + version byte + kind byte.
const headerLen = len(magic) + 2

// maxMetaBytes bounds the metadata block a reader will accept; real
// blocks are ~200 bytes, so anything larger marks a corrupt length
// prefix, not a model.
const maxMetaBytes = 1 << 20

// minModelBytes is the smallest plausible model file: even an
// untrained baseline spends more than this on its header and metadata.
// Shorter headerless inputs are rejected with their size, so an empty
// or half-copied file reads as what it is.
const minModelBytes = 64

// Meta is a model file's identity: the payload's content digest and
// enough description to report a model without decoding it. Version-2
// files store it as their JSON metadata block; for version-3 files it
// is derived from the header and the metadata section.
type Meta struct {
	// Digest is the lowercase hex SHA-256 identifying the model
	// content independent of the file path: of the payload bytes for
	// version-2 files (verified by ReadBytes), of the section directory
	// for version-3 files.
	Digest string `json:"digest"`
	// PayloadBytes is the exact payload length, letting ReadBytes
	// distinguish truncation from corruption.
	PayloadBytes int64 `json:"payload_bytes"`
	// Label is the model's configuration label, e.g. "NB/word".
	Label string `json:"label,omitempty"`
	// Mode is the compiled mode ("linear", "custom", "dtree", "knn",
	// "tld") for snapshots; empty for classifiers.
	Mode string `json:"mode,omitempty"`
}

// KindName names a kind byte for error messages.
func KindName(kind byte) string {
	switch kind {
	case KindClassifier:
		return "trained classifier"
	case KindSnapshot:
		return "compiled snapshot"
	default:
		return fmt.Sprintf("unknown kind 0x%02x", kind)
	}
}

// DigestBytes returns the lowercase hex SHA-256 of data — the digest
// WriteClassifier stores in the metadata block when data is a payload.
func DigestBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// WriteClassifier serialises a trained system in the version-2
// container: header, metadata block, gob payload.
func WriteClassifier(w io.Writer, sys *core.System) error {
	var payload bytes.Buffer
	if err := sys.Save(&payload); err != nil {
		return err
	}
	var h [headerLen]byte
	copy(h[:], magic[:])
	h[len(magic)] = versionMeta
	h[len(magic)+1] = KindClassifier
	if _, err := w.Write(h[:]); err != nil {
		return fmt.Errorf("writing model header: %w", err)
	}
	mb, err := json.Marshal(Meta{
		Digest:       DigestBytes(payload.Bytes()),
		PayloadBytes: int64(payload.Len()),
		Label:        sys.Config.Describe(),
	})
	if err != nil {
		return fmt.Errorf("encoding model metadata: %w", err)
	}
	var mlen [4]byte
	binary.BigEndian.PutUint32(mlen[:], uint32(len(mb)))
	if _, err := w.Write(mlen[:]); err != nil {
		return fmt.Errorf("writing model metadata: %w", err)
	}
	if _, err := w.Write(mb); err != nil {
		return fmt.Errorf("writing model metadata: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("writing model payload: %w", err)
	}
	return nil
}

// WriteSnapshot serialises a compiled snapshot in the version-3 flat
// container: typed sections that later Opens map and consume in place.
func WriteSnapshot(w io.Writer, snap *compiled.Snapshot) error {
	return snap.WriteFlat(w)
}

// readMeta decodes the version-2 metadata block from r: a big-endian
// uint32 length, then that many bytes of JSON.
func readMeta(r io.Reader) (*Meta, error) {
	var mlen [4]byte
	if _, err := io.ReadFull(r, mlen[:]); err != nil {
		return nil, fmt.Errorf("model file truncated in metadata length: %w", err)
	}
	n := binary.BigEndian.Uint32(mlen[:])
	if n > maxMetaBytes {
		return nil, fmt.Errorf("model metadata block claims %d bytes (limit %d): corrupt file", n, maxMetaBytes)
	}
	mb := make([]byte, n)
	if _, err := io.ReadFull(r, mb); err != nil {
		return nil, fmt.Errorf("model file truncated in metadata block: %w", err)
	}
	var meta Meta
	if err := json.Unmarshal(mb, &meta); err != nil {
		return nil, fmt.Errorf("decoding model metadata: %w", err)
	}
	return &meta, nil
}

// regenerate names the command that writes a current file of kind.
func regenerate(kind byte) string {
	if kind == KindClassifier {
		return "re-run `urllangid train` to write a current classifier"
	}
	return "re-run `urllangid compile` to write a version-3 snapshot"
}

// parseHeader validates a model file's first bytes and returns its
// container version and kind. head holds the first headerLen bytes (or
// the whole file when shorter); size is the whole file's length.
// Everything this build does not read — foreign data, retired formats,
// unknown versions and kinds — is rejected here, before any payload
// byte is touched.
func parseHeader(head []byte, size int64) (ver, kind byte, err error) {
	if len(head) < headerLen || !bytes.Equal(head[:len(magic)], magic[:]) {
		if size < minModelBytes {
			return 0, 0, fmt.Errorf("not a model file (%d bytes: shorter than any saved model)", size)
		}
		return 0, 0, errors.New("unrecognized model data: no urllangid header, so either not a model file or a headerless gob from before the header existed, a retired format: re-run `urllangid compile` for snapshots or `urllangid train` for classifiers")
	}
	ver, kind = head[len(magic)], head[len(magic)+1]
	switch {
	case kind != KindClassifier && kind != KindSnapshot:
		return 0, 0, fmt.Errorf("model file declares %s; this build knows classifiers (%q) and snapshots (%q)",
			KindName(kind), KindClassifier, KindSnapshot)
	case ver == versionRetired:
		return 0, 0, fmt.Errorf("model file is a version-1 %s container, a retired format: %s", KindName(kind), regenerate(kind))
	case ver == versionMeta && kind == KindSnapshot:
		return 0, 0, fmt.Errorf("model file is a version-2 gob %s container, a retired format: %s", KindName(kind), regenerate(kind))
	case ver == versionFlat && kind != KindSnapshot:
		return 0, 0, fmt.Errorf("model file declares a version-%d flat container holding a %s; only snapshots use the flat layout",
			ver, KindName(kind))
	case ver != versionMeta && ver != versionFlat:
		return 0, 0, fmt.Errorf("model file has container version %d; this build reads version-%d classifiers and version-%d snapshots",
			ver, versionMeta, versionFlat)
	}
	return ver, kind, nil
}

// inspectFlatReader reads a v3 file's directory and metadata section
// from a sequential reader: the directory gives the model digest and
// payload total, and the metadata section — verified against its
// directory digest before use — gives label and mode. Payload sections
// after the metadata are never read.
func inspectFlatReader(br *bufio.Reader) (kind byte, meta *Meta, secs []flat.Section, err error) {
	kind, digest, secs, err := ReadIndexFlat(br)
	if err != nil {
		return 0, nil, nil, err
	}
	var total int64
	var msec *flat.Section
	for i := range secs {
		total += int64(secs[i].Len)
		if secs[i].Type == flat.SecMeta && secs[i].Lang == -1 {
			msec = &secs[i]
		}
	}
	meta = &Meta{Digest: digest, PayloadBytes: total}
	if msec == nil {
		return kind, meta, secs, nil
	}
	if msec.Len > maxMetaBytes {
		return 0, nil, nil, fmt.Errorf("model metadata section claims %d bytes (limit %d): corrupt file", msec.Len, maxMetaBytes)
	}
	consumed := uint64(flat.HeaderSize) + uint64(len(secs))*flat.EntrySize
	if msec.Off < consumed {
		return 0, nil, nil, fmt.Errorf("model metadata section at offset %d overlaps the directory", msec.Off)
	}
	if _, err := br.Discard(int(msec.Off - consumed)); err != nil {
		return 0, nil, nil, fmt.Errorf("model file truncated before its metadata section: %w", err)
	}
	mb := make([]byte, msec.Len)
	if _, err := io.ReadFull(br, mb); err != nil {
		return 0, nil, nil, fmt.Errorf("model file truncated in metadata section: %w", err)
	}
	if got := sha256.Sum256(mb); got != msec.Digest {
		return 0, nil, nil, fmt.Errorf("model metadata section corrupted: SHA-256 digest mismatch")
	}
	var fm struct {
		Label string `json:"label"`
		Mode  string `json:"mode"`
	}
	if err := json.Unmarshal(mb, &fm); err != nil {
		return 0, nil, nil, fmt.Errorf("decoding model metadata: %w", err)
	}
	meta.Label, meta.Mode = fm.Label, fm.Mode
	return kind, meta, secs, nil
}

// ReadIndexFlat reads a v3 file's header and section directory from a
// sequential reader, filling the Meta digest from the header. It wraps
// flat.ReadIndex so callers outside this package see one inspection
// vocabulary.
func ReadIndexFlat(r io.Reader) (kind byte, digest string, secs []flat.Section, err error) {
	kind, d, secs, err := flat.ReadIndex(r)
	if err != nil {
		return 0, "", nil, err
	}
	return kind, hex.EncodeToString(d[:]), secs, nil
}

// SectionInfo describes one v3 section for inspection output.
type SectionInfo struct {
	// Name is the section type name (e.g. "weights", "strtab-blob").
	Name string `json:"name"`
	// Lang is the language index for per-language sections, -1
	// otherwise.
	Lang int32 `json:"lang"`
	// Off and Len locate the payload in the file.
	Off uint64 `json:"off"`
	Len uint64 `json:"len"`
	// Digest is the payload's lowercase hex SHA-256.
	Digest string `json:"digest"`
}

// Info is a model file's full inspection report: what InspectFile
// learns without decoding any model payload.
type Info struct {
	// Version is the container version: 2 for classifiers, 3 for
	// snapshots.
	Version byte `json:"version"`
	// Kind is the kind byte (KindClassifier or KindSnapshot).
	Kind byte `json:"-"`
	// Meta is the model's identity. For version-3 files the digest is
	// the model digest from the header.
	Meta *Meta `json:"meta,omitempty"`
	// Sections is the v3 section directory, in file order; nil for
	// classifiers.
	Sections []SectionInfo `json:"sections,omitempty"`
}

// InspectFile reports what the file at path holds — container version,
// kind, metadata, and (for v3) the full section directory — without
// decoding any model payload: the cheap path for asking "what is this
// file, and has its content changed?". Files this build does not read
// are rejected exactly as ReadBytes rejects them.
func InspectFile(path string) (*Info, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := uint64(st.Size())
	br := bufio.NewReader(f)
	head, _ := br.Peek(headerLen)
	ver, kind, err := parseHeader(head, st.Size())
	if err != nil {
		return nil, err
	}
	if ver == versionMeta {
		if _, err := br.Discard(headerLen); err != nil {
			return nil, fmt.Errorf("reading model header: %w", err)
		}
		meta, err := readMeta(br)
		if err != nil {
			return nil, err
		}
		return &Info{Version: ver, Kind: kind, Meta: meta}, nil
	}
	kind, meta, secs, err := inspectFlatReader(br)
	if err != nil {
		return nil, err
	}
	// The directory is internally consistent (its digest matched), but
	// a truncated copy can still carry a directory whose sections point
	// past the end of the file. The file size is known here, so reject
	// that without reading any payload.
	for _, s := range secs {
		if s.Off > size || s.Len > size-s.Off {
			return nil, fmt.Errorf("%s section [%d,+%d) extends past the %d-byte file: truncated copy",
				flat.SectionName(s.Type), s.Off, s.Len, size)
		}
	}
	info := &Info{Version: ver, Kind: kind, Meta: meta, Sections: make([]SectionInfo, len(secs))}
	for i, s := range secs {
		info.Sections[i] = SectionInfo{
			Name:   flat.SectionName(s.Type),
			Lang:   s.Lang,
			Off:    s.Off,
			Len:    s.Len,
			Digest: hex.EncodeToString(s.Digest[:]),
		}
	}
	return info, nil
}

// ReadBytes loads a model of either kind from an in-memory file image,
// returning exactly one of (sys, snap) non-nil plus the file's
// metadata. A version-3 snapshot views data in place — callers that
// already hold the file bytes pay no second buffer. A version-2
// classifier's payload is verified against its recorded length and
// digest before it is decoded.
func ReadBytes(data []byte) (sys *core.System, snap *compiled.Snapshot, meta *Meta, err error) {
	ver, kind, err := parseHeader(data, int64(len(data)))
	if err != nil {
		return nil, nil, nil, err
	}
	if ver == versionFlat {
		snap, meta, err := readFlatBytes(data, nil)
		return nil, snap, meta, err
	}
	r := bytes.NewReader(data[headerLen:])
	meta, err = readMeta(r)
	if err != nil {
		return nil, nil, nil, err
	}
	payload := data[len(data)-r.Len():]
	switch {
	case int64(len(payload)) < meta.PayloadBytes:
		return nil, nil, nil, fmt.Errorf("model payload truncated: %d of %d bytes (re-copy the file)", len(payload), meta.PayloadBytes)
	case int64(len(payload)) > meta.PayloadBytes:
		return nil, nil, nil, fmt.Errorf("model file carries %d bytes beyond its declared %d-byte payload (corrupted or concatenated)", int64(len(payload))-meta.PayloadBytes, meta.PayloadBytes)
	}
	if got := DigestBytes(payload); got != meta.Digest {
		return nil, nil, nil, fmt.Errorf("model payload corrupted: SHA-256 digest mismatch (file claims %.12s…, content is %.12s…)", meta.Digest, got)
	}
	sys, err = core.Load(bytes.NewReader(payload))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("loading %s payload: %w", KindName(kind), err)
	}
	return sys, nil, meta, nil
}

// readFlatBytes loads a v3 flat container over data, handing the
// snapshot views directly into data (which may be a live mapping owned
// by mapping, or heap bytes with mapping nil). The synthesised Meta
// carries the model digest from the header — the directory hash, which
// via the per-section digests identifies the full content without
// hashing the payloads.
func readFlatBytes(data []byte, mapping *flat.Mapping) (*compiled.Snapshot, *Meta, error) {
	f, err := flat.Parse(data)
	if err != nil {
		return nil, nil, err
	}
	snap, err := compiled.LoadFlat(f, mapping)
	if err != nil {
		return nil, nil, fmt.Errorf("loading %s payload: %w", KindName(KindSnapshot), err)
	}
	meta := &Meta{
		Digest:       f.ModelDigest(),
		PayloadBytes: f.PayloadBytes(),
		Label:        snap.Describe(),
		Mode:         snap.Mode(),
	}
	return snap, meta, nil
}

// OpenedModel is OpenPath's result: exactly one of Sys and Snap is
// non-nil, plus the file's metadata.
type OpenedModel struct {
	// Sys is the trained system for classifier files.
	Sys *core.System
	// Snap is the compiled snapshot for snapshot files. It is backed
	// by a memory mapping and must be Closed after last use.
	Snap *compiled.Snapshot
	// Meta is the file's metadata. Its Digest is the content identity
	// under which reloads compare; for snapshots it comes from the
	// header alone, so computing it never touches the payloads.
	Meta *Meta
}

// OpenPath opens the model file at path through the cheapest route its
// container allows: v3 snapshot files are memory-mapped (read fallback
// where mmap is unavailable) and their snapshot views the mapping in
// place — no decode, no copy, one digest pass — while v2 classifier
// files are read and decoded. Either way a damaged file fails here with
// an error naming the damage. The caller owns the returned snapshot's
// backing mapping via Snapshot.Close.
func OpenPath(path string) (*OpenedModel, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	// A file shorter than the header falls through to ReadBytes, which
	// reports what it is; real I/O errors fail here.
	var head [headerLen]byte
	n, err := io.ReadFull(f, head[:])
	f.Close()
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if flat.IsFlat(head[:n]) {
		m, err := flat.MapPath(path)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		snap, meta, err := readFlatBytes(m.Bytes(), m)
		if err != nil {
			m.Release()
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &OpenedModel{Snap: snap, Meta: meta}, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sys, snap, meta, err := ReadBytes(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &OpenedModel{Sys: sys, Snap: snap, Meta: meta}, nil
}
