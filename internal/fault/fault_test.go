package fault

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

func TestDisabledIsNoOp(t *testing.T) {
	Deactivate()
	if active.Load() != nil {
		t.Fatal("no plan active after Deactivate")
	}
	if err := Inject(SiteBuildArtifacts, "gcc"); err != nil {
		t.Fatalf("disabled Inject returned %v", err)
	}
	data := []byte{0xab, 0xcd}
	if Mutate(SiteTraceCorrupt, "gcc", data) {
		t.Fatal("disabled Mutate reported a flip")
	}
	if !bytes.Equal(data, []byte{0xab, 0xcd}) {
		t.Fatal("disabled Mutate changed data")
	}
}

func TestRuleWindow(t *testing.T) {
	p := NewPlan(0, Rule{Site: SiteSimReplay, Key: "qcd", Kind: Transient, After: 2, Times: 2})
	Activate(p)
	defer Deactivate()

	// Invocations 0,1 pass; 2,3 fault; 4+ pass again.
	want := []bool{false, false, true, true, false, false}
	for i, wantErr := range want {
		err := Inject(SiteSimReplay, "qcd")
		if (err != nil) != wantErr {
			t.Fatalf("invocation %d: err = %v, want fault=%v", i, err, wantErr)
		}
		if err != nil {
			var fe *Error
			if !errors.As(err, &fe) {
				t.Fatalf("invocation %d: untyped error %T", i, err)
			}
			if fe.Site != SiteSimReplay || fe.Key != "qcd" || fe.Invocation != uint64(i) {
				t.Fatalf("invocation %d: wrong error fields %+v", i, fe)
			}
		}
	}
	if got := p.Fired(SiteSimReplay); got != 2 {
		t.Fatalf("Fired = %d, want 2", got)
	}
}

func TestKeyIsolation(t *testing.T) {
	p := NewPlan(0, Rule{Site: SiteBuildArtifacts, Key: "bps", Kind: Permanent})
	Activate(p)
	defer Deactivate()
	if err := Inject(SiteBuildArtifacts, "gcc"); err != nil {
		t.Fatalf("other key faulted: %v", err)
	}
	err := Inject(SiteBuildArtifacts, "bps")
	if err == nil {
		t.Fatal("armed key did not fault")
	}
	if IsTransient(err) {
		t.Fatal("permanent fault classified transient")
	}
	if !IsInjected(err) {
		t.Fatal("injected fault not recognised")
	}
	// Wrapping preserves classification.
	wrapped := fmt.Errorf("exp: building bps: %w", err)
	if !IsInjected(wrapped) {
		t.Fatal("wrapped injected fault not recognised")
	}
}

func TestUnkeyedRuleMatchesAnyKey(t *testing.T) {
	Activate(NewPlan(0, Rule{Site: SiteTraceRead, Kind: Transient, Times: 1}))
	defer Deactivate()
	if err := Inject(SiteTraceRead, "anything"); !IsTransient(err) {
		t.Fatalf("unkeyed rule missed: %v", err)
	}
	// Counters are per key: a fresh key sees invocation 0 again and the
	// Times=1 window fires once per key.
	if err := Inject(SiteTraceRead, "other"); !IsTransient(err) {
		t.Fatalf("per-key counter broken: %v", err)
	}
	if err := Inject(SiteTraceRead, "anything"); err != nil {
		t.Fatalf("window exceeded Times: %v", err)
	}
}

func TestPanicKind(t *testing.T) {
	Activate(NewPlan(0, Rule{Site: SiteBuildArtifacts, Kind: Panic, Times: 1}))
	defer Deactivate()
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("Panic rule did not panic")
		}
		pv, ok := v.(*PanicValue)
		if !ok {
			t.Fatalf("panicked with %T, want *PanicValue", v)
		}
		if pv.Err.Kind != Panic || pv.String() == "" {
			t.Fatalf("bad panic payload %+v", pv.Err)
		}
	}()
	Inject(SiteBuildArtifacts, "gcc")
}

func TestMutateDeterministic(t *testing.T) {
	orig := []byte("the quick brown fox jumps over the lazy dog")
	flip := func(seed int64) []byte {
		Activate(NewPlan(seed, Rule{Site: SiteTraceCorrupt, Kind: Corrupt, Times: 1}))
		defer Deactivate()
		data := append([]byte(nil), orig...)
		if !Mutate(SiteTraceCorrupt, "gcc", data) {
			t.Fatal("armed Mutate did not flip")
		}
		return data
	}
	a, b, c := flip(7), flip(7), flip(8)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed flipped different bits")
	}
	if bytes.Equal(a, orig) {
		t.Fatal("flip changed nothing")
	}
	// Exactly one bit differs.
	bits := 0
	for i := range a {
		x := a[i] ^ orig[i]
		for ; x != 0; x &= x - 1 {
			bits++
		}
	}
	if bits != 1 {
		t.Fatalf("flipped %d bits, want 1", bits)
	}
	if bytes.Equal(a, c) {
		t.Log("seeds 7 and 8 flipped the same bit (possible but unlikely)")
	}
}

func TestMutateCountsCorruptRulesOnly(t *testing.T) {
	// An Inject-kind rule must not fire from Mutate and vice versa.
	Activate(NewPlan(0,
		Rule{Site: SiteTraceWrite, Kind: Permanent},
		Rule{Site: SiteTraceCorrupt, Kind: Corrupt}))
	defer Deactivate()
	if Mutate(SiteTraceWrite, "x", []byte{1}) {
		t.Fatal("Mutate fired a non-Corrupt rule")
	}
	if err := Inject(SiteTraceCorrupt, "x"); err != nil {
		t.Fatal("Inject fired a Corrupt rule")
	}
}

func TestSitesRegistry(t *testing.T) {
	sites := Sites()
	if len(sites) < 6 {
		t.Fatalf("only %d registered sites", len(sites))
	}
	seen := map[Site]bool{}
	for _, s := range sites {
		if seen[s] {
			t.Fatalf("duplicate site %q", s)
		}
		seen[s] = true
	}
	for _, want := range []Site{SiteBuildArtifacts, SiteTraceWrite, SiteTraceCorrupt,
		SiteTraceRead, SiteSimReplay, SiteCPUFuel} {
		if !seen[want] {
			t.Fatalf("site %q not registered", want)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		Transient: "transient", Permanent: "permanent",
		Corrupt: "corrupt", Panic: "panic", Kind(99): "kind(99)",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

// TestOnFireHook: the observation hook sees every firing injection
// (inject and mutate paths), with the prior hook restorable.
func TestOnFireHook(t *testing.T) {
	type firing struct {
		site Site
		key  string
		kind Kind
	}
	var got []firing
	prev := SetOnFire(func(s Site, k string, kind Kind) {
		got = append(got, firing{s, k, kind})
	})
	defer func() {
		Deactivate()
		SetOnFire(prev)
	}()

	Activate(NewPlan(1,
		Rule{Site: SiteSimReplay, Key: "gcc", Kind: Transient, Times: 1},
		Rule{Site: SiteTraceCorrupt, Kind: Corrupt, Times: 1},
	))
	if err := Inject(SiteSimReplay, "gcc"); err == nil {
		t.Fatal("expected injected error")
	}
	if err := Inject(SiteSimReplay, "gcc"); err != nil {
		t.Fatalf("rule window exceeded, got %v", err)
	}
	if err := Inject(SiteBuildArtifacts, "gcc"); err != nil {
		t.Fatalf("unarmed site fired: %v", err)
	}
	data := []byte{0, 0, 0, 0}
	if !Mutate(SiteTraceCorrupt, "bps", data) {
		t.Fatal("expected mutation")
	}
	want := []firing{
		{SiteSimReplay, "gcc", Transient},
		{SiteTraceCorrupt, "bps", Corrupt},
	}
	if len(got) != len(want) {
		t.Fatalf("hook saw %d firings (%v), want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing[%d] = %v, want %v", i, got[i], want[i])
		}
	}

	// Cleared hook: further firings are silent.
	SetOnFire(nil)
	Activate(NewPlan(1, Rule{Site: SiteSimReplay, Key: "gcc", Kind: Transient, Times: 1}))
	_ = Inject(SiteSimReplay, "gcc")
	if len(got) != 2 {
		t.Fatalf("cleared hook still fired: %d records", len(got))
	}
}
