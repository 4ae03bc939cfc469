package urllangid_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"urllangid"
	"urllangid/internal/modelfile/flat"
)

func TestOpenDetectsKind(t *testing.T) {
	clf, err := urllangid.Train(urllangid.Options{Seed: 12}, trainSamples(t, 300))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := urllangid.Open(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(*urllangid.Classifier); !ok {
		t.Fatalf("classifier file opened as %T", m)
	}

	buf.Reset()
	if err := clf.Compile().Save(&buf); err != nil {
		t.Fatal(err)
	}
	m, err = urllangid.Open(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(*urllangid.Snapshot); !ok {
		t.Fatalf("snapshot file opened as %T", m)
	}
}

// retiredFormats builds one input per model format this build no
// longer reads, each from header bytes: a version-1 container, a
// headerless gob, and a version-2 (gob) snapshot container. The
// payloads are filler — rejection must happen from the header alone.
func retiredFormats() map[string][]byte {
	magic := []byte{0x89, 'U', 'R', 'L', 'I', 'D', '\r', '\n'}
	filler := bytes.Repeat([]byte{0x42}, 128)
	header := func(ver, kind byte) []byte {
		return append(append(append([]byte(nil), magic...), ver, kind), filler...)
	}
	var headerless bytes.Buffer
	if err := gob.NewEncoder(&headerless).Encode(struct {
		Version, Mode uint8
		Blob          []byte
	}{2, 1, filler}); err != nil {
		panic(err)
	}
	return map[string][]byte{
		"version-1":  header(1, 'S'),
		"headerless": headerless.Bytes(),
		"version-2":  header(2, 'S'),
	}
}

// TestOpenRejectsRetiredFormats: every public entry point rejects the
// retired formats with an error naming the format and the command that
// writes a current file — never a gob decode error.
func TestOpenRejectsRetiredFormats(t *testing.T) {
	dir := t.TempDir()
	for format, data := range retiredFormats() {
		path := filepath.Join(dir, format+".model")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for entry, open := range map[string]func() error{
			"Open":         func() error { _, err := urllangid.Open(bytes.NewReader(data)); return err },
			"Load":         func() error { _, err := urllangid.Load(bytes.NewReader(data)); return err },
			"LoadSnapshot": func() error { _, err := urllangid.LoadSnapshot(bytes.NewReader(data)); return err },
			"OpenFile":     func() error { _, err := urllangid.OpenFile(path); return err },
		} {
			err := open()
			if err == nil {
				t.Fatalf("%s accepted a %s file", entry, format)
			}
			for _, want := range []string{format, "re-run `urllangid "} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s(%s) error %q does not mention %q", entry, format, err, want)
				}
			}
			if strings.Contains(err.Error(), "gob:") {
				t.Errorf("%s(%s) error leaks a gob error: %q", entry, format, err)
			}
		}
	}
}

// TestOpenRejectsCorruptPayload: one flipped bit in any payload section
// of a v3 file fails every public open — Open, LoadSnapshot, OpenFile,
// Registry.Load and Registry.Reload — with an error naming the section,
// and a rejected Reload leaves the loaded version serving.
func TestOpenRejectsCorruptPayload(t *testing.T) {
	save := func(seed uint64) []byte {
		t.Helper()
		clf, err := urllangid.Train(urllangid.Options{Seed: seed}, trainSamples(t, 300))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := clf.Compile().Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	dir := t.TempDir()
	live := filepath.Join(dir, "live.snapshot")
	if err := os.WriteFile(live, save(12), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := urllangid.NewRegistry(urllangid.RegistryOptions{})
	defer reg.Close()
	info, err := reg.Load("m", live)
	if err != nil {
		t.Fatal(err)
	}
	const u = "http://www.nachrichten-wetter.de/zeitung"
	want, err := reg.Classify("m", u)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt a different model than the one serving, so Reload's
	// digest skip cannot take it for the running file.
	other := save(13)
	ff, err := flat.Parse(other)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ff.Sections() {
		if s.Len == 0 {
			continue
		}
		name := flat.SectionName(s.Type)
		data := append([]byte(nil), other...)
		data[s.Off+s.Len/2] ^= 0x10
		path := filepath.Join(dir, fmt.Sprintf("%s-%d.snapshot", name, s.Lang))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Reload runs last: it renames the corrupt file over the live
		// one, as a deployment swaps files, so the serving version's
		// mapped inode stays untouched.
		for _, e := range []struct {
			entry string
			open  func() error
		}{
			{"Open", func() error { _, err := urllangid.Open(bytes.NewReader(data)); return err }},
			{"LoadSnapshot", func() error { _, err := urllangid.LoadSnapshot(bytes.NewReader(data)); return err }},
			{"OpenFile", func() error { _, err := urllangid.OpenFile(path); return err }},
			{"Registry.Load", func() error { _, err := reg.Load("bad", path); return err }},
			{"Registry.Reload", func() error {
				if err := os.Rename(path, live); err != nil {
					t.Fatal(err)
				}
				_, _, err := reg.Reload("m")
				return err
			}},
		} {
			if err := e.open(); err == nil || !strings.Contains(err.Error(), "section "+name+" ") {
				t.Errorf("%s with a flipped %s bit = %v, want an error naming the section", e.entry, name, err)
			}
		}
		got, err := reg.Classify("m", u)
		if err != nil || got != want {
			t.Errorf("after a rejected %s reload: Classify = %v, %v; want the loaded version's %v", name, got, err, want)
		}
		if m := reg.Models(); len(m) != 1 || m[0].Version != info.Version {
			t.Errorf("after a rejected %s reload: models = %+v, want m at version %d", name, m, info.Version)
		}
	}
}

// TestWrongKindErrorsNameTheFormat pins the satellite fix: feeding the
// wrong kind to Load/LoadSnapshot must produce an error that names what
// the file actually holds and where to take it — not a raw gob error.
func TestWrongKindErrorsNameTheFormat(t *testing.T) {
	clf, err := urllangid.Train(urllangid.Options{Seed: 13}, trainSamples(t, 300))
	if err != nil {
		t.Fatal(err)
	}
	var clfFile, snapFile bytes.Buffer
	if err := clf.Save(&clfFile); err != nil {
		t.Fatal(err)
	}
	if err := clf.Compile().Save(&snapFile); err != nil {
		t.Fatal(err)
	}

	_, err = urllangid.Load(bytes.NewReader(snapFile.Bytes()))
	if err == nil {
		t.Fatal("Load accepted a snapshot file")
	}
	for _, want := range []string{"compiled snapshot", "LoadSnapshot"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Load wrong-kind error %q does not mention %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "gob") {
		t.Errorf("Load wrong-kind error leaks a gob error: %q", err)
	}

	_, err = urllangid.LoadSnapshot(bytes.NewReader(clfFile.Bytes()))
	if err == nil {
		t.Fatal("LoadSnapshot accepted a classifier file")
	}
	for _, want := range []string{"trained classifier", "Load"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("LoadSnapshot wrong-kind error %q does not mention %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "gob") {
		t.Errorf("LoadSnapshot wrong-kind error leaks a gob error: %q", err)
	}
}

func TestOpenRejectsGarbageNamingFormats(t *testing.T) {
	// Garbage large enough to be a plausible model gets an error naming
	// both accepted formats.
	big := bytes.Repeat([]byte("definitely not a model, just prose. "), 8)
	_, err := urllangid.Open(bytes.NewReader(big))
	if err == nil {
		t.Fatal("Open accepted garbage")
	}
	if !strings.Contains(err.Error(), "classifier") || !strings.Contains(err.Error(), "snapshot") {
		t.Errorf("garbage error %q does not name the accepted formats", err)
	}

	// Empty and too-short input — the classic "served an empty file"
	// mistake — states the byte count instead of a gob/EOF error.
	for _, data := range [][]byte{nil, []byte("definitely not a model")} {
		_, err := urllangid.Open(bytes.NewReader(data))
		if err == nil {
			t.Fatalf("Open accepted %d bytes", len(data))
		}
		if want := fmt.Sprintf("not a model file (%d bytes", len(data)); !strings.Contains(err.Error(), want) {
			t.Errorf("short-input error %q does not contain %q", err, want)
		}
	}
}
