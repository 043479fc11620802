// Package sessions discovers monitor sessions from a program event
// trace — the five program-independent session types of §5 of the
// paper:
//
//	OneLocalAuto     one local automatic variable (all instantiations)
//	AllLocalInFunc   all locals of one function, including its statics
//	OneGlobalStatic  one global static variable
//	OneHeap          one heap object (identity survives realloc)
//	AllHeapInFunc    all heap objects allocated by f or by functions
//	                 executing in f's dynamic context
//
// A session is a set of program objects; phase 2 (internal/sim) replays
// the trace against every session at once. Sessions with no monitor
// hits are discarded afterwards, as in the paper (§8).
package sessions

import (
	"fmt"
	"sort"

	"edb/internal/objects"
	"edb/internal/trace"
)

// Type enumerates the session types of §5.
type Type int

// Session types.
const (
	OneLocalAuto Type = iota
	AllLocalInFunc
	OneGlobalStatic
	OneHeap
	AllHeapInFunc
	NumTypes
)

// String names the session type exactly as the paper does.
func (t Type) String() string {
	switch t {
	case OneLocalAuto:
		return "OneLocalAuto"
	case AllLocalInFunc:
		return "AllLocalInFunc"
	case OneGlobalStatic:
		return "OneGlobalStatic"
	case OneHeap:
		return "OneHeap"
	case AllHeapInFunc:
		return "AllHeapInFunc"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Session is one monitor session: a named set of program objects whose
// install/remove events define the session's monitors.
type Session struct {
	// Index is the session's position in the discovery output; the
	// simulator uses it as a dense identifier.
	Index int
	Type  Type
	// Func qualifies function-scoped sessions (OneLocalAuto,
	// AllLocalInFunc, AllHeapInFunc).
	Func string
	// Name qualifies object-scoped sessions (the variable, global, or
	// heap object name).
	Name string
	// Objects lists the member object IDs.
	Objects []objects.ID
}

// Label renders a human-readable session identifier.
func (s *Session) Label() string {
	switch s.Type {
	case OneLocalAuto:
		return fmt.Sprintf("%s(%s.%s)", s.Type, s.Func, s.Name)
	case AllLocalInFunc, AllHeapInFunc:
		return fmt.Sprintf("%s(%s)", s.Type, s.Func)
	default:
		return fmt.Sprintf("%s(%s)", s.Type, s.Name)
	}
}

// Set is the full collection of sessions discovered for one trace,
// along with the object → sessions membership index the simulator needs.
//
// The membership index is stored in CSR (compressed sparse row) layout:
// one flat int32 array of session indices (Members) plus a per-object
// offset array (MemberOff), so object id's member sessions are
// Members[MemberOff[id]:MemberOff[id+1]]. Compared with the previous
// [][]int32 layout, CSR removes ~one slice header (24 B) and one heap
// object per program object, stores every membership list contiguously
// (the replay hot loop walks them millions of times), and turns a
// lookup into pure offset arithmetic over one backing array.
type Set struct {
	Sessions []Session

	// MemberOff and Members form the CSR membership index.
	//
	// MemberOff has NumObjects()+2 entries: object IDs start at 1, so
	// MemberOff[0] == MemberOff[1] == 0 and the sessions containing
	// object id are Members[MemberOff[id]:MemberOff[id+1]].
	//
	// Within one object's span the session indices are strictly
	// ascending (NewSet appends session indices in session order). Use
	// the Membership accessor rather than indexing these directly.
	MemberOff []int32
	Members   []int32
}

// NumObjects returns the largest object ID the membership index covers.
func (s *Set) NumObjects() int {
	if len(s.MemberOff) < 2 {
		return 0
	}
	return len(s.MemberOff) - 2
}

// Membership is the compatibility accessor over the CSR index: it
// returns the session indices containing object id, in strictly
// ascending order, as a zero-copy subslice of Members. Callers must
// not mutate the result. IDs outside [1, NumObjects()] return nil.
func (s *Set) Membership(id objects.ID) []int32 {
	if id < 1 || int(id) > s.NumObjects() {
		return nil
	}
	return s.Members[s.MemberOff[id]:s.MemberOff[id+1]]
}

// NewSet builds a Set from an explicit session list, renumbering
// Session.Index to the slice position and constructing the CSR
// membership index over object IDs [1, numObjects]. Discover uses it;
// tests use it to build permuted or synthetic session populations.
//
// The CSR build is two-pass (count, then fill) over the sessions in
// index order, which both avoids per-object append growth and
// establishes the ascending-order invariant documented on Set.
func NewSet(sess []Session, numObjects int) *Set {
	set := &Set{Sessions: sess}
	for i := range set.Sessions {
		set.Sessions[i].Index = i
	}
	set.MemberOff = make([]int32, numObjects+2)
	counts := set.MemberOff // alias: reuse as the per-object counter pass
	total := 0
	for i := range set.Sessions {
		for _, id := range set.Sessions[i].Objects {
			if id < 1 || int(id) > numObjects {
				panic(fmt.Sprintf("sessions: session %d references object %d outside [1, %d]",
					i, id, numObjects))
			}
			counts[id+1]++
			total++
		}
	}
	for i := 1; i < len(set.MemberOff); i++ {
		set.MemberOff[i] += set.MemberOff[i-1]
	}
	set.Members = make([]int32, total)
	// next[id] is the insertion cursor for object id's row; seed from the
	// finished prefix sums (MemberOff[id] is the row start).
	next := make([]int32, numObjects+1)
	for id := 1; id <= numObjects; id++ {
		next[id] = set.MemberOff[id]
	}
	for i := range set.Sessions {
		for _, id := range set.Sessions[i].Objects {
			set.Members[next[id]] = int32(i)
			next[id]++
		}
	}
	return set
}

// Discover enumerates every instance of the five session types present
// in the trace.
func Discover(tr *trace.Trace) *Set {
	objs := tr.Objects.All()
	var sess []Session

	add := func(s Session) {
		sess = append(sess, s)
	}

	// OneLocalAuto: one session per local automatic variable.
	// AllLocalInFunc: group locals + statics by declaring function.
	// OneGlobalStatic / OneHeap: one per object.
	byFunc := make(map[string][]objects.ID)
	var funcOrder []string
	heapByFunc := make(map[string][]objects.ID)
	var heapFuncOrder []string

	for _, o := range objs {
		switch o.Kind {
		case objects.KindLocalAuto:
			add(Session{Type: OneLocalAuto, Func: o.Func, Name: o.Name, Objects: []objects.ID{o.ID}})
			if _, seen := byFunc[o.Func]; !seen {
				funcOrder = append(funcOrder, o.Func)
			}
			byFunc[o.Func] = append(byFunc[o.Func], o.ID)
		case objects.KindLocalStatic:
			if _, seen := byFunc[o.Func]; !seen {
				funcOrder = append(funcOrder, o.Func)
			}
			byFunc[o.Func] = append(byFunc[o.Func], o.ID)
		case objects.KindGlobal:
			add(Session{Type: OneGlobalStatic, Name: o.Name, Objects: []objects.ID{o.ID}})
		case objects.KindHeap:
			add(Session{Type: OneHeap, Name: o.Name, Objects: []objects.ID{o.ID}})
			for _, f := range o.AllocCtx {
				if _, seen := heapByFunc[f]; !seen {
					heapFuncOrder = append(heapFuncOrder, f)
				}
				heapByFunc[f] = append(heapByFunc[f], o.ID)
			}
		}
	}
	sort.Strings(funcOrder)
	for _, f := range funcOrder {
		add(Session{Type: AllLocalInFunc, Func: f, Objects: byFunc[f]})
	}
	sort.Strings(heapFuncOrder)
	for _, f := range heapFuncOrder {
		add(Session{Type: AllHeapInFunc, Func: f, Objects: heapByFunc[f]})
	}

	return NewSet(sess, len(objs))
}
