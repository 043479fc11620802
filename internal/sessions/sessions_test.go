package sessions

import (
	"testing"

	"edb/internal/objects"
	"edb/internal/trace"
)

func buildTrace() *trace.Trace {
	tab := objects.NewTable()
	tab.Add(objects.Object{Kind: objects.KindLocalAuto, Func: "f", Name: "x"})   // 1
	tab.Add(objects.Object{Kind: objects.KindLocalAuto, Func: "f", Name: "y"})   // 2
	tab.Add(objects.Object{Kind: objects.KindLocalStatic, Func: "f", Name: "s"}) // 3
	tab.Add(objects.Object{Kind: objects.KindLocalAuto, Func: "g", Name: "z"})   // 4
	tab.Add(objects.Object{Kind: objects.KindGlobal, Name: "glob"})              // 5
	tab.Add(objects.Object{Kind: objects.KindHeap, Name: "heap#1",
		AllocCtx: []string{"main", "f"}}) // 6
	tab.Add(objects.Object{Kind: objects.KindHeap, Name: "heap#2",
		AllocCtx: []string{"main"}}) // 7
	return &trace.Trace{Program: "t", Objects: tab}
}

func TestDiscoverCounts(t *testing.T) {
	set := Discover(buildTrace())
	var counts [NumTypes]int
	for _, s := range set.Sessions {
		counts[s.Type]++
	}
	if counts[OneLocalAuto] != 3 {
		t.Errorf("OneLocalAuto = %d, want 3", counts[OneLocalAuto])
	}
	if counts[AllLocalInFunc] != 2 { // f, g
		t.Errorf("AllLocalInFunc = %d, want 2", counts[AllLocalInFunc])
	}
	if counts[OneGlobalStatic] != 1 {
		t.Errorf("OneGlobalStatic = %d, want 1", counts[OneGlobalStatic])
	}
	if counts[OneHeap] != 2 {
		t.Errorf("OneHeap = %d, want 2", counts[OneHeap])
	}
	if counts[AllHeapInFunc] != 2 { // main, f
		t.Errorf("AllHeapInFunc = %d, want 2", counts[AllHeapInFunc])
	}
}

func TestAllLocalIncludesStatics(t *testing.T) {
	set := Discover(buildTrace())
	for i := range set.Sessions {
		s := &set.Sessions[i]
		if s.Type == AllLocalInFunc && s.Func == "f" {
			if len(s.Objects) != 3 { // x, y, static s
				t.Errorf("AllLocalInFunc(f) objects = %v", s.Objects)
			}
			return
		}
	}
	t.Fatal("AllLocalInFunc(f) not found")
}

func TestStaticNotOneLocalAuto(t *testing.T) {
	set := Discover(buildTrace())
	for i := range set.Sessions {
		s := &set.Sessions[i]
		if s.Type == OneLocalAuto && s.Name == "s" {
			t.Error("static variable must not form a OneLocalAuto session")
		}
		if s.Type == OneGlobalStatic && s.Name == "s" {
			t.Error("function static must not form a OneGlobalStatic session")
		}
	}
}

func TestAllHeapInFuncMembership(t *testing.T) {
	set := Discover(buildTrace())
	var mainS, fS *Session
	for i := range set.Sessions {
		s := &set.Sessions[i]
		if s.Type == AllHeapInFunc {
			switch s.Func {
			case "main":
				mainS = s
			case "f":
				fS = s
			}
		}
	}
	if mainS == nil || fS == nil {
		t.Fatal("AllHeapInFunc sessions missing")
	}
	if len(mainS.Objects) != 2 {
		t.Errorf("AllHeapInFunc(main) = %v, want both heap objects", mainS.Objects)
	}
	if len(fS.Objects) != 1 || fS.Objects[0] != 6 {
		t.Errorf("AllHeapInFunc(f) = %v, want [6]", fS.Objects)
	}
}

func TestMembershipIndex(t *testing.T) {
	set := Discover(buildTrace())
	// Object 1 (f.x) belongs to OneLocalAuto(f.x) and AllLocalInFunc(f).
	if got := len(set.Membership(1)); got != 2 {
		t.Errorf("object 1 memberships = %d, want 2", got)
	}
	// Object 6 (heap#1) belongs to OneHeap + AllHeapInFunc(main) + AllHeapInFunc(f).
	if got := len(set.Membership(6)); got != 3 {
		t.Errorf("object 6 memberships = %d, want 3", got)
	}
	// Object 3 (static) belongs only to AllLocalInFunc(f).
	if got := len(set.Membership(3)); got != 1 {
		t.Errorf("object 3 memberships = %d, want 1", got)
	}
	// Every membership refers to a session containing the object.
	for id := 1; id <= set.NumObjects(); id++ {
		for _, si := range set.Membership(objects.ID(id)) {
			found := false
			for _, o := range set.Sessions[si].Objects {
				if int(o) == id {
					found = true
				}
			}
			if !found {
				t.Errorf("membership inconsistency: object %d not in session %d", id, si)
			}
		}
	}
}

// TestMembershipSorted pins the ascending-order invariant of
// Membership.
func TestMembershipSorted(t *testing.T) {
	set := Discover(buildTrace())
	for id := 1; id <= set.NumObjects(); id++ {
		m := set.Membership(objects.ID(id))
		for k := 1; k < len(m); k++ {
			if m[k-1] >= m[k] {
				t.Fatalf("Membership[%d] not strictly ascending: %v", id, m)
			}
		}
	}
}

func TestSessionIndices(t *testing.T) {
	set := Discover(buildTrace())
	for i := range set.Sessions {
		if set.Sessions[i].Index != i {
			t.Errorf("session %d has Index %d", i, set.Sessions[i].Index)
		}
	}
}

func TestLabels(t *testing.T) {
	set := Discover(buildTrace())
	seen := make(map[string]bool)
	for i := range set.Sessions {
		l := set.Sessions[i].Label()
		if l == "" {
			t.Error("empty label")
		}
		if seen[l] {
			t.Errorf("duplicate label %q", l)
		}
		seen[l] = true
	}
}

func TestTypeString(t *testing.T) {
	want := map[Type]string{
		OneLocalAuto: "OneLocalAuto", AllLocalInFunc: "AllLocalInFunc",
		OneGlobalStatic: "OneGlobalStatic", OneHeap: "OneHeap",
		AllHeapInFunc: "AllHeapInFunc",
	}
	for ty, s := range want {
		if ty.String() != s {
			t.Errorf("%d.String() = %q", ty, ty.String())
		}
	}
	if Type(42).String() == "" {
		t.Error("unknown type renders empty")
	}
}

func TestEmptyTrace(t *testing.T) {
	tr := &trace.Trace{Program: "empty", Objects: objects.NewTable()}
	set := Discover(tr)
	if len(set.Sessions) != 0 {
		t.Errorf("sessions from empty trace: %d", len(set.Sessions))
	}
}

// TestCSRWellFormed pins the CSR layout invariants of the membership
// index: monotone offsets bracketing the flat Members array, object IDs
// starting at 1 (rows 0 and 1 share offset 0), and nil-safe access
// outside the covered ID range — including on a zero-value Set.
func TestCSRWellFormed(t *testing.T) {
	set := Discover(buildTrace())
	if n := set.NumObjects(); n != 7 {
		t.Fatalf("NumObjects = %d, want 7", n)
	}
	if len(set.MemberOff) != set.NumObjects()+2 {
		t.Fatalf("len(MemberOff) = %d, want %d", len(set.MemberOff), set.NumObjects()+2)
	}
	if set.MemberOff[0] != 0 || set.MemberOff[1] != 0 {
		t.Errorf("MemberOff must start 0,0 (IDs start at 1): got %v", set.MemberOff[:2])
	}
	for i := 1; i < len(set.MemberOff); i++ {
		if set.MemberOff[i] < set.MemberOff[i-1] {
			t.Fatalf("MemberOff not monotone at %d: %v", i, set.MemberOff)
		}
	}
	if got := set.MemberOff[len(set.MemberOff)-1]; int(got) != len(set.Members) {
		t.Errorf("final offset %d != len(Members) %d", got, len(set.Members))
	}
	// Out-of-range IDs are nil, not a panic.
	if set.Membership(0) != nil {
		t.Error("Membership(0) must be nil")
	}
	if set.Membership(objects.ID(set.NumObjects()+5)) != nil {
		t.Error("Membership past NumObjects must be nil")
	}
	var zero Set
	if zero.NumObjects() != 0 || zero.Membership(1) != nil {
		t.Error("zero-value Set must be inert")
	}
}

// TestNewSetMatchesDiscover: rebuilding a discovered set's sessions
// through NewSet reproduces the same CSR index, and renumbers Index.
func TestNewSetMatchesDiscover(t *testing.T) {
	orig := Discover(buildTrace())
	sess := make([]Session, len(orig.Sessions))
	copy(sess, orig.Sessions)
	for i := range sess {
		sess[i].Index = -1 // NewSet must renumber
	}
	rebuilt := NewSet(sess, orig.NumObjects())
	for i := range rebuilt.Sessions {
		if rebuilt.Sessions[i].Index != i {
			t.Fatalf("session %d has Index %d", i, rebuilt.Sessions[i].Index)
		}
	}
	for id := 1; id <= orig.NumObjects(); id++ {
		a, b := orig.Membership(objects.ID(id)), rebuilt.Membership(objects.ID(id))
		if len(a) != len(b) {
			t.Fatalf("object %d: %v vs %v", id, a, b)
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("object %d: %v vs %v", id, a, b)
			}
		}
	}
}

// TestNewSetRejectsOutOfRangeObjects: the CSR build panics loudly on a
// session referencing an object outside [1, numObjects] — a corrupted
// session list must not build a silently misindexed membership table.
func TestNewSetRejectsOutOfRangeObjects(t *testing.T) {
	for _, bad := range []objects.ID{0, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSet accepted out-of-range object %d", bad)
				}
			}()
			NewSet([]Session{{Type: OneHeap, Name: "h", Objects: []objects.ID{bad}}}, 4)
		}()
	}
}

// TestDiscoverStaticOnlyFunction: a function whose only local is a
// static (no automatics) still gets its AllLocalInFunc session — the
// static is the first sighting of the function.
func TestDiscoverStaticOnlyFunction(t *testing.T) {
	tab := objects.NewTable()
	tab.Add(objects.Object{Kind: objects.KindLocalStatic, Func: "sfunc", Name: "counter"}) // 1
	set := Discover(&trace.Trace{Objects: tab})
	if len(set.Sessions) != 1 {
		t.Fatalf("got %d sessions, want 1", len(set.Sessions))
	}
	s := set.Sessions[0]
	if s.Type != AllLocalInFunc || s.Func != "sfunc" || len(s.Objects) != 1 {
		t.Fatalf("unexpected session %+v", s)
	}
	if m := set.Membership(1); len(m) != 1 || m[0] != 0 {
		t.Fatalf("membership of the static: %v", m)
	}
}
