package strtab

import (
	"fmt"
	"testing"
)

func TestTable(t *testing.T) {
	names := []string{"wetter", "bericht", "de", "produits", "recherche", "xy"}
	tab := New(names)
	if tab.Len() != len(names) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(names))
	}
	for i, n := range names {
		id, ok := tab.Lookup(n)
		if !ok || id != uint32(i) {
			t.Errorf("Lookup(%q) = %d, %v; want %d", n, id, ok, i)
		}
		if got := tab.Name(uint32(i)); got != n {
			t.Errorf("Name(%d) = %q, want %q", i, got, n)
		}
	}
	for _, miss := range []string{"", "wette", "wetterx", "zzz", "bericht "} {
		if _, ok := tab.Lookup(miss); ok {
			t.Errorf("Lookup(%q) unexpectedly found", miss)
		}
	}
	empty := New(nil)
	if _, ok := empty.Lookup("anything"); ok {
		t.Error("empty table found an entry")
	}
	if empty.Len() != 0 {
		t.Errorf("empty Len = %d", empty.Len())
	}
}

func TestTableDense(t *testing.T) {
	var names []string
	for i := 0; i < 5000; i++ {
		names = append(names, fmt.Sprintf("tok%dx", i))
	}
	tab := New(names)
	for i, n := range names {
		if id, ok := tab.Lookup(n); !ok || id != uint32(i) {
			t.Fatalf("Lookup(%q) = %d, %v", n, id, ok)
		}
	}
}

func TestFromFlatRoundTrip(t *testing.T) {
	names := []string{"alpha", "beta", "", "gamma"} // empty names are legal
	tab := New(names)
	back, err := FromFlat(tab.Blob(), tab.Offsets(), tab.Slots())
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		if id, ok := back.Lookup(n); !ok || id != uint32(i) {
			t.Errorf("restored Lookup(%q) = %d, %v; want %d", n, id, ok, i)
		}
	}
}

// TestFromFlatValidation: every malformed layout must be rejected by
// FromFlat itself.
func TestFromFlatValidation(t *testing.T) {
	tab := New([]string{"aa", "bb", "cc"})
	restore := func(blob []byte, offs []uint32) error {
		_, err := FromFlat(blob, offs, tab.Slots())
		return err
	}
	if restore(tab.Blob(), tab.Offsets()[:2]) == nil {
		t.Error("short offsets accepted")
	}
	bad := append([]uint32(nil), tab.Offsets()...)
	bad[1], bad[2] = bad[2]+1, bad[1]
	if restore(tab.Blob(), bad) == nil {
		t.Error("non-monotonic offsets accepted")
	}
	if restore(tab.Blob()[:3], tab.Offsets()) == nil {
		t.Error("truncated blob accepted")
	}
	if _, err := FromFlat(tab.Blob(), tab.Offsets(), tab.Slots()[:3]); err == nil {
		t.Error("non-power-of-two slot count accepted")
	}
}

func TestLookupZeroAlloc(t *testing.T) {
	tab := New([]string{"wetter", "bericht", "nachrichten"})
	if avg := testing.AllocsPerRun(100, func() {
		tab.Lookup("bericht")
		tab.Lookup("missing")
	}); avg > 0 {
		t.Errorf("Lookup allocates %v per op", avg)
	}
}
