package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"edb/internal/arch"
	"edb/internal/objects"
)

func sampleTrace() *Trace {
	tab := objects.NewTable()
	g := tab.Add(objects.Object{Kind: objects.KindGlobal, Name: "counter", SizeBytes: 4})
	h := tab.Add(objects.Object{Kind: objects.KindHeap, Name: "heap#1", SizeBytes: 16,
		AllocCtx: []string{"main", "build"}})
	return &Trace{
		Program:    "demo",
		BaseCycles: 123456,
		Instret:    1000,
		Objects:    tab,
		Events: []Event{
			{Kind: EvInstall, Obj: g, BA: 0x400000, EA: 0x400004},
			{Kind: EvInstall, Obj: h, BA: 0x1000000, EA: 0x1000010},
			{Kind: EvWrite, BA: 0x400000, EA: 0x400004, PC: 0x1040},
			{Kind: EvWrite, BA: 0x1000008, EA: 0x100000c, PC: 0x1080},
			{Kind: EvRemove, Obj: h, BA: 0x1000000, EA: 0x1000010},
			{Kind: EvRemove, Obj: g, BA: 0x400000, EA: 0x400004},
		},
	}
}

func TestRoundtrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteTo(&buf, tr, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Program != tr.Program || got.BaseCycles != tr.BaseCycles || got.Instret != tr.Instret {
		t.Errorf("header mismatch: %+v", got)
	}
	if !reflect.DeepEqual(got.Events, tr.Events) {
		t.Errorf("events mismatch:\n got %v\nwant %v", got.Events, tr.Events)
	}
	if got.Objects.Len() != tr.Objects.Len() {
		t.Fatalf("object count mismatch")
	}
	for i := 1; i <= tr.Objects.Len(); i++ {
		a := tr.Objects.MustGet(objects.ID(i))
		b := got.Objects.MustGet(objects.ID(i))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("object %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

func TestRoundtripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := objects.NewTable()
	var ids []objects.ID
	for i := 0; i < 50; i++ {
		ids = append(ids, tab.Add(objects.Object{
			Kind:      objects.Kind(rng.Intn(4)),
			Func:      "f",
			Name:      "x",
			SizeBytes: 4 * (1 + rng.Intn(100)),
		}))
	}
	tr := &Trace{Program: "rand", Objects: tab}
	installed := make(map[objects.ID]bool)
	for i := 0; i < 2000; i++ {
		ba := arch.Addr(0x400000 + 4*rng.Intn(100000))
		switch rng.Intn(3) {
		case 0:
			id := ids[rng.Intn(len(ids))]
			tr.Events = append(tr.Events, Event{Kind: EvInstall, Obj: id, BA: ba, EA: ba + 4})
			installed[id] = true
		case 1:
			tr.Events = append(tr.Events, Event{Kind: EvWrite, BA: ba, EA: ba + 4, PC: arch.Addr(0x1000 + 4*rng.Intn(1000))})
		case 2:
			for id := range installed {
				tr.Events = append(tr.Events, Event{Kind: EvRemove, Obj: id, BA: ba, EA: ba + 4})
				delete(installed, id)
				break
			}
		}
	}
	var buf bytes.Buffer
	if err := WriteTo(&buf, tr, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, tr.Events) {
		t.Fatal("random roundtrip mismatch")
	}
}

func TestReadBadMagic(t *testing.T) {
	if _, err := Read(strings.NewReader("NOPE....")); err == nil {
		t.Error("bad magic should fail")
	}
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Error("empty input should fail")
	}
}

func TestReadTruncated(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteTo(&buf, tr, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{5, 10, len(full) / 2, len(full) - 1} {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncated at %d should fail", cut)
		}
	}
}

func TestCounts(t *testing.T) {
	tr := sampleTrace()
	i, r, w := tr.Counts()
	if i != 2 || r != 2 || w != 2 {
		t.Errorf("Counts = %d/%d/%d", i, r, w)
	}
}

func TestBaseSeconds(t *testing.T) {
	tr := &Trace{BaseCycles: arch.ClockHz * 2}
	if got := tr.BaseSeconds(); got != 2.0 {
		t.Errorf("BaseSeconds = %v", got)
	}
}

func TestValidateOK(t *testing.T) {
	if err := sampleTrace().Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	tab := objects.NewTable()
	id := tab.Add(objects.Object{Kind: objects.KindGlobal, Name: "g"})

	cases := []struct {
		name   string
		events []Event
	}{
		{"empty range", []Event{{Kind: EvWrite, BA: 8, EA: 8}}},
		{"unaligned", []Event{{Kind: EvWrite, BA: 2, EA: 6}}},
		{"unknown object", []Event{{Kind: EvInstall, Obj: 99, BA: 4, EA: 8}}},
		{"remove before install", []Event{{Kind: EvRemove, Obj: id, BA: 4, EA: 8}}},
		{"unbalanced install", []Event{{Kind: EvInstall, Obj: id, BA: 4, EA: 8}}},
	}
	for _, c := range cases {
		tr := &Trace{Objects: tab, Events: c.events}
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestWriteText(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTrace().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# trace demo", "obj 1 global", "write", "install obj=1", "remove obj=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestEventKindString(t *testing.T) {
	if EvInstall.String() != "install" || EvRemove.String() != "remove" || EvWrite.String() != "write" {
		t.Error("event kind names wrong")
	}
	if EventKind(9).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestCompactness(t *testing.T) {
	// The binary format should stay well under 24 bytes/event for
	// realistic traces (varint deltas keep write events small).
	tr := sampleTrace()
	for i := 0; i < 10000; i++ {
		tr.Events = append(tr.Events, Event{Kind: EvWrite, BA: 0x400000, EA: 0x400004, PC: 0x2000})
	}
	var buf bytes.Buffer
	if err := WriteTo(&buf, tr, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	perEvent := float64(buf.Len()) / float64(len(tr.Events))
	if perEvent > 16 {
		t.Errorf("binary format too fat: %.1f bytes/event", perEvent)
	}
}

func TestValidateExclusive(t *testing.T) {
	if err := sampleTrace().ValidateExclusive(); err != nil {
		t.Errorf("exclusive trace rejected: %v", err)
	}
	tab := objects.NewTable()
	a := tab.Add(objects.Object{Kind: objects.KindGlobal, Name: "a"})
	b := tab.Add(objects.Object{Kind: objects.KindGlobal, Name: "b"})
	tr := &Trace{Objects: tab, Events: []Event{
		{Kind: EvInstall, Obj: a, BA: 4, EA: 12},
		{Kind: EvInstall, Obj: b, BA: 8, EA: 16}, // word 8 double-owned
	}}
	if err := tr.ValidateExclusive(); err == nil {
		t.Error("overlapping live objects not rejected")
	}
	// Re-install after remove is fine: ownership moved, not shared.
	tr.Events = []Event{
		{Kind: EvInstall, Obj: a, BA: 4, EA: 12},
		{Kind: EvRemove, Obj: a, BA: 4, EA: 12},
		{Kind: EvInstall, Obj: b, BA: 8, EA: 16},
	}
	if err := tr.ValidateExclusive(); err != nil {
		t.Errorf("sequential ownership rejected: %v", err)
	}
}
