package edbvet

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// writeModule materializes a synthetic module under a temp dir.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// has reports whether some finding of the given check mentions want.
func has(fs []Finding, check, want string) bool {
	for _, f := range fs {
		if f.Check == check && strings.Contains(f.Msg, want) {
			return true
		}
	}
	return false
}

func count(fs []Finding, check string) int {
	n := 0
	for _, f := range fs {
		if f.Check == check {
			n++
		}
	}
	return n
}

func TestObsvNilCheck(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module tvet\n\ngo 1.22\n",
		"internal/obsv/obsv.go": `package obsv

type Tracer struct {
	n    int
	next *Tracer
}

// Good guards before touching state.
func (t *Tracer) Good() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Bad touches t.n with no guard.
func (t *Tracer) Bad() int {
	return t.n
}

// Delegates is guard-free but only calls nil-safe methods.
func (t *Tracer) Delegates() int {
	return t.Good() + t.Good()
}

//edbvet:allow obsvnil -- requires a live tracer by contract
func (t *Tracer) Waived() int {
	return t.n
}

type Span struct{ t *Tracer }

// AliasGuard uses the field-alias idiom.
func (s *Span) AliasGuard() int {
	u := s.t
	if u == nil {
		return 0
	}
	s.t = nil
	return u.Good()
}

// FieldGuard guards directly on the contract field.
func (s *Span) FieldGuard() int {
	if s.t == nil {
		return 0
	}
	return s.t.n
}

type Metrics struct{ m map[string]int }

// LateTouch guards too late: state is read first.
func (m *Metrics) LateTouch(k string) int {
	v := m.m[k]
	if m == nil {
		return 0
	}
	return v
}

// unexportedTouch is outside the contract (enabled-path helper).
func (t *Tracer) unexported() int { return t.n }

type Other struct{ n int }

// Touch is on a non-contract type.
func (o *Other) Touch() int { return o.n }
`,
	})
	fs, err := Run(root)
	if err != nil {
		t.Fatal(err)
	}
	if !has(fs, "obsvnil", "method Bad on *Tracer") {
		t.Errorf("Bad not flagged: %v", fs)
	}
	if !has(fs, "obsvnil", "method LateTouch on *Metrics") {
		t.Errorf("LateTouch not flagged: %v", fs)
	}
	if got := count(fs, "obsvnil"); got != 2 {
		t.Errorf("want exactly 2 obsvnil findings (Good/Delegates/Waived/AliasGuard/FieldGuard/unexported/Other clean), got %d: %v", got, fs)
	}
}

func TestFaultSiteCheck(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module tvet\n\ngo 1.22\n",
		"internal/fault/fault.go": `package fault

type Site string

var registry []Site

func Register(name string) Site {
	s := Site(name)
	registry = append(registry, s)
	return s
}

var SiteGood = Register("good.site")

type Rule struct {
	Site Site
	Key  string
}
`,
		"user/user.go": `package user

import "tvet/internal/fault"

// Rogue literal: explicit conversion.
var rogue = fault.Site("rogue.site")

// Shadow literal: spells a registered site but bypasses the constant.
var rules = []fault.Rule{
	{Site: "good.site", Key: "k"},
}

// The registered constant is the sanctioned spelling.
var ok = fault.SiteGood

//edbvet:allow faultsite -- test fixture site
var waived = fault.Site("waived.site")

// Plain strings that merely look like sites stay untyped.
var plain = "rogue.site"
`,
	})
	fs, err := Run(root)
	if err != nil {
		t.Fatal(err)
	}
	if !has(fs, "faultsite", `"rogue.site" is not a registered site`) {
		t.Errorf("rogue literal not flagged: %v", fs)
	}
	if !has(fs, "faultsite", `"good.site" shadows a registered site`) {
		t.Errorf("shadow literal not flagged: %v", fs)
	}
	if got := count(fs, "faultsite"); got != 2 {
		t.Errorf("want exactly 2 faultsite findings, got %d: %v", got, fs)
	}
}

func TestMapOrderCheck(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module tvet\n\ngo 1.22\n",
		"rep/rep.go": `package rep

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// DumpBad emits in map order.
func DumpBad(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}

// BuildBad appends to a builder in map order.
func BuildBad(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k)
	}
	return b.String()
}

// DumpGood collects, sorts, then emits.
func DumpGood(w io.Writer, m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s=%d\n", k, m[k])
	}
}

// Aggregate only reduces; order cannot show.
func Aggregate(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// Waived emits diagnostics where order is acceptable.
//
//edbvet:allow maporder -- debug dump, order irrelevant
func Waived(w io.Writer, m map[string]int) {
	for k := range m {
		fmt.Fprintln(w, k)
	}
}
`,
	})
	fs, err := Run(root)
	if err != nil {
		t.Fatal(err)
	}
	if !has(fs, "maporder", "fmt.Fprintf") {
		t.Errorf("DumpBad not flagged: %v", fs)
	}
	if !has(fs, "maporder", "WriteString") {
		t.Errorf("BuildBad not flagged: %v", fs)
	}
	if got := count(fs, "maporder"); got != 2 {
		t.Errorf("want exactly 2 maporder findings, got %d: %v", got, fs)
	}
}

// TestMapOrderSeesEventEmission: a map-range loop that hands trace
// events to a sink emits them in randomised order. The fixture's
// TeardownBad is the tracer's heap teardown as it stood when spice
// traces differed run to run.
func TestMapOrderSeesEventEmission(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module tvet\n\ngo 1.22\n",
		"internal/trace/trace.go": `package trace

type Event struct {
	Kind uint8
	Obj  int
}

type Writer struct{ n int }

func (w *Writer) Append(e Event) error { w.n++; return nil }
`,
		"internal/tracer/tracer.go": `package tracer

import (
	"sort"

	"tvet/internal/trace"
)

type heapObj struct{ id int }

type Tracer struct {
	heapByAddr map[uint32]heapObj
	events     []trace.Event
	sink       *trace.Writer
}

func (t *Tracer) emit(e trace.Event) { t.events = append(t.events, e) }

// TeardownBad emits removes in map order.
func (t *Tracer) TeardownBad() {
	for a := range t.heapByAddr {
		h := t.heapByAddr[a]
		delete(t.heapByAddr, a)
		t.emit(trace.Event{Kind: 2, Obj: h.id})
	}
}

// StreamBad appends to a writer in map order.
func (t *Tracer) StreamBad() {
	for _, h := range t.heapByAddr {
		_ = t.sink.Append(trace.Event{Obj: h.id})
	}
}

// TeardownGood collects, sorts by object ID, then emits.
func (t *Tracer) TeardownGood() {
	live := make([]heapObj, 0, len(t.heapByAddr))
	for _, h := range t.heapByAddr {
		live = append(live, h)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	for _, h := range live {
		t.emit(trace.Event{Kind: 2, Obj: h.id})
	}
}

// Collect only builds a slice; the caller orders it.
func (t *Tracer) Collect() []trace.Event {
	var out []trace.Event
	for _, h := range t.heapByAddr {
		out = append(out, trace.Event{Obj: h.id})
	}
	return out
}
`,
	})
	fs, err := Run(root)
	if err != nil {
		t.Fatal(err)
	}
	if !has(fs, "maporder", "t.emit(trace.Event)") {
		t.Errorf("TeardownBad not flagged: %v", fs)
	}
	if !has(fs, "maporder", "t.sink.Append(trace.Event)") {
		t.Errorf("StreamBad not flagged: %v", fs)
	}
	if got := count(fs, "maporder"); got != 2 {
		t.Errorf("want exactly 2 maporder findings, got %d: %v", got, fs)
	}
}

// TestUnusedCheck: an exported identifier is reported when only its
// own package's tests reach it, and kept when non-test code uses it,
// another package's test names it, an interface call can reach it, or
// an allow directive says why it stays.
func TestUnusedCheck(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module tvet\n\ngo 1.22\n",
		"internal/lib/lib.go": `package lib

// OwnTestOnly is named only by this package's test: reported.
func OwnTestOnly() int { return 1 }

// OtherTest is named by another package's test.
func OtherTest() int { return 2 }

// Aliased is named by another package's test through an alias.
func Aliased() int { return 3 }

// Used is called by non-test code in another package.
func Used() int { return 4 }

// Seam stays for the tests on purpose.
//
//edbvet:allow unused -- test seam
func Seam() int { return 5 }

// Lonely is named by nothing at all: reported.
const Lonely = 6

type Impl struct{}

// Do satisfies iface.Doer: a call through the interface names Doer.Do.
func (Impl) Do() {}

// String satisfies fmt.Stringer, which the module never names.
func (Impl) String() string { return "impl" }

// Selected is selected by another package's test.
func (Impl) Selected() {}

// Dead is called by nothing: reported.
func (Impl) Dead() {}
`,
		"internal/lib/lib_test.go": `package lib

import "testing"

func TestOwn(t *testing.T) {
	_ = OwnTestOnly() + Seam()
	Impl{}.Dead()
}
`,
		"internal/iface/iface.go": `package iface

import "tvet/internal/lib"

type Doer interface{ Do() }

func Run() int {
	var d Doer = lib.Impl{}
	d.Do()
	return lib.Used()
}
`,
		"internal/iface/iface_test.go": `package iface

import (
	"testing"

	"tvet/internal/lib"
	l "tvet/internal/lib"
)

func TestOther(t *testing.T) {
	_ = lib.OtherTest() + l.Aliased()
	lib.Impl{}.Selected()
}
`,
		"cmd/tool/main.go": `package main

import "tvet/internal/iface"

func main() { _ = iface.Run() }
`,
		"pub/pub.go": `package pub

// Exported outside internal/ is never reported.
func Exported() {}
`,
	})
	fs, err := Run(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"func OwnTestOnly has", "const Lonely has", "method Dead has"} {
		if !has(fs, "unused", want) {
			t.Errorf("%q not reported: %v", want, fs)
		}
	}
	if got := count(fs, "unused"); got != 3 {
		t.Errorf("want exactly 3 unused findings, got %d: %v", got, fs)
	}
	if !sort.SliceIsSorted(fs, func(i, j int) bool {
		a, b := fs[i].Pos, fs[j].Pos
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Line < b.Line
	}) {
		t.Errorf("findings not sorted by position: %v", fs)
	}
}

// TestRepoIsClean runs the full suite over this repository: the lint
// gate in `make lint` requires zero findings, so the tree must stay
// clean (or carry an explicit allow directive with a reason).
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Run(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Errorf("%s", f)
	}
}
